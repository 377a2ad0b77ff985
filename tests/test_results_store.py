"""Content-addressed ResultStore: verified hits, resume, CLI surface.

The acceptance property: re-running any campaign with an unchanged
(target, scenarios, workload, engine-policy) key is a store hit that
returns the identical ResultSet **without invoking the simulator** —
proven here by making the simulation backends explode on the second
run.
"""

import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro.memory.faults import CellStuckAt
from repro.memory.march import MATS_PLUS
from repro.memory.organization import MemoryOrganization
from repro.memory.ram import BehavioralRAM
from repro.results import (
    Provenance,
    ResultRecord,
    ResultSet,
    ResultStore,
    ResultStoreError,
    campaign_key,
    describe_target,
)
from repro.scenarios import (
    CampaignEngine,
    MemoryScenario,
    TransientScenario,
    Workload,
)

from test_results_api import (
    CAMPAIGNS,
    run_decoder_campaign,
    run_transient_campaign,
)


def sample_set(detections=(1, None)):
    return ResultSet(
        records=[
            ResultRecord(f"f{index}", "sa1", detection)
            for index, detection in enumerate(detections)
        ],
        provenances=(
            Provenance(
                campaign="decoder", engine="packed", repro_version="1.4.0"
            ),
        ),
        cycles_simulated=64,
    )


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        artifact = sample_set()
        key = campaign_key({"campaign": "decoder", "x": 1})
        store.put(key, artifact, {"campaign": "decoder", "x": 1})
        assert store.contains(key)
        assert store.get(key) == artifact
        assert store.stats.hits == 1 and store.stats.verified == 1

    def test_miss_returns_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get("0" * 64) is None
        assert store.stats.misses == 1

    def test_key_is_deterministic_and_order_insensitive(self):
        assert campaign_key({"a": 1, "b": [2, 3]}) == campaign_key(
            {"b": [2, 3], "a": 1}
        )
        assert campaign_key({"a": 1}) != campaign_key({"a": 2})

    def test_corruption_is_detected_not_served(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"c": 1})
        store.put(key, sample_set())
        payload = store._payload_path(key)
        with open(payload, "a") as handle:
            handle.write('{"f":"evil","k":"sa1"}\n')
        with pytest.raises(ResultStoreError, match="hash verification"):
            store.get(key)

    def test_payload_without_meta_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"d": 1})
        store.put(key, sample_set())
        import os

        os.remove(store._meta_path(key))
        assert store.get(key) is None

    def test_interrupted_refresh_reads_as_miss_not_corruption(
        self, tmp_path
    ):
        """A refresh killed between payload and meta promotion must be
        a miss on the next run, never a stale-hash ResultStoreError."""
        import os

        store = ResultStore(tmp_path)
        key = campaign_key({"g": 1})
        store.put(key, sample_set())
        # replay the put protocol up to the crash point: meta retracted,
        # new payload in place, meta never promoted
        os.remove(store._meta_path(key))
        with open(store._payload_path(key), "w") as handle:
            handle.write(sample_set(detections=(7,)).to_jsonl())
        assert store.get(key) is None
        # recompute path works: a fresh put fully restores the entry
        store.put(key, sample_set(detections=(7,)))
        assert store.get(key).records[0].first_detection == 7

    def test_unreadable_meta_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"h": 1})
        store.put(key, sample_set())
        with open(store._meta_path(key), "w") as handle:
            handle.write("{truncated")
        assert store.get(key) is None
        assert store.meta(key) is None

    def test_coerce(self, tmp_path):
        assert ResultStore.coerce(None) is None
        store = ResultStore(tmp_path)
        assert ResultStore.coerce(store) is store
        assert isinstance(ResultStore.coerce(str(tmp_path)), ResultStore)

    def test_entries_and_resolve(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"e": 1})
        store.put(key, sample_set(), {"e": 1})
        entries = store.entries()
        assert len(entries) == 1
        assert entries[0].key == key
        assert entries[0].campaign == "decoder"
        assert entries[0].faults == 2
        assert store.resolve(key[:8]) == key
        with pytest.raises(LookupError, match="no store entry"):
            store.resolve("zz")
        other = campaign_key({"e": 2})
        store.put(other, sample_set())
        with pytest.raises(LookupError, match="ambiguous"):
            store.resolve("")

    def test_delete(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"f": 1})
        store.put(key, sample_set())
        assert store.delete(key)
        assert not store.contains(key)
        assert not store.delete(key)


def _racing_put(root, key, barrier):
    """Module-level so a child process can run it: one racing writer."""
    store = ResultStore(root)
    barrier.wait(timeout=30)
    store.put(key, sample_set(), {"campaign": "race"})


class TestConcurrentWriters:
    def test_two_process_put_race_leaves_one_verified_artifact(
        self, tmp_path
    ):
        """Two processes racing `put` on one key: the meta-last
        protocol (retract, replace payload, promote meta — with the
        retraction tolerant of the other writer winning the remove)
        must leave exactly one complete, hash-verified artifact."""
        root = str(tmp_path / "store")
        key = campaign_key({"campaign": "race"})
        for round_no in range(3):
            barrier = multiprocessing.Barrier(2)
            workers = [
                multiprocessing.Process(
                    target=_racing_put, args=(root, key, barrier)
                )
                for _ in range(2)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert [worker.exitcode for worker in workers] == [0, 0], (
                f"round {round_no}: a racing writer crashed"
            )
            store = ResultStore(root)
            assert store.keys() == [key]
            assert store.verify_entry(key) is None
            assert store.get(key) == sample_set()
            # both writers promoted complete files; no strays linger
            assert [n for n in os.listdir(root) if ".tmp" in n] == []


    def test_two_thread_put_race_on_one_key(self, tmp_path):
        """Two threads of one process putting one key, as two job
        threads of `repro serve` do: pid-only temp names let one
        thread's promotion move the other's temp file away
        (`FileNotFoundError`)."""
        store = ResultStore(tmp_path / "store")
        key = campaign_key({"campaign": "threads"})
        barrier = threading.Barrier(2)
        errors = []

        def writer():
            barrier.wait(timeout=30)
            try:
                for _ in range(300):
                    store.put(key, sample_set(), {"campaign": "threads"})
                    store.put_report(key, {"suite": "threads"})
                    store.put_cell_entry(key, key, "source")
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        reopened = ResultStore(store.root)
        assert reopened.get(key) == sample_set()
        assert reopened.get_report(key) == {"suite": "threads"}
        assert reopened.stats.verified == reopened.stats.hits == 2
        assert reopened.cell_entry(key) == {"key": key, "source": "source"}
        strays = [
            name
            for base, _, names in os.walk(store.root)
            for name in names
            if name.endswith(".tmp")
        ]
        assert strays == []


class TestMetaFormat:
    def test_meta_is_one_compact_line(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"m": 1})
        material = {"m": 1, "rom": [[1, 0, 1], [0, 1, 1]]}
        store.put(key, sample_set(), material)
        text = open(store._meta_path(key)).read()
        assert text.endswith("\n") and text.count("\n") == 1
        meta = json.loads(text)
        assert text == json.dumps(
            meta, sort_keys=True, separators=(",", ":")
        ) + "\n"
        # the fields an indented meta held, unchanged
        assert set(meta) == {
            "key", "sha256", "material", "shard", "summary", "campaign",
            "repro_version", "created_at",
        }
        assert meta["key"] == key and meta["material"] == material
        assert meta["summary"] == sample_set().summary()

    def test_an_indented_meta_still_serves_verified_hits(self, tmp_path):
        # metas written before 2.6 are indented JSON
        store = ResultStore(tmp_path)
        key = campaign_key({"m": 2})
        store.put(key, sample_set(), {"m": 2})
        meta = store.meta(key)
        with open(store._meta_path(key), "w") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)
            handle.write("\n")
        reopened = ResultStore(tmp_path)
        assert reopened.get(key) == sample_set()
        assert reopened.stats.verified == reopened.stats.hits == 1
        assert reopened.meta(key) == meta
        assert reopened.verify_all()["ok"]


class TestCellIndexFiles:
    """The store's side of the suite cell index: the layout of
    ``<root>/cells/`` (the runner decides when to read and write)."""

    DIGEST = "d" * 64

    def test_entry_round_trips_as_one_compact_object(self, tmp_path):
        store = ResultStore(tmp_path)
        key = campaign_key({"i": 1})
        assert store.cell_entry(self.DIGEST) is None
        store.put_cell_entry(self.DIGEST, key, "fingerprint")
        assert store.cell_entry(self.DIGEST) == {
            "key": key, "source": "fingerprint"
        }
        path = os.path.join(store.root, "cells", self.DIGEST)
        assert open(path).read() == (
            '{"key":"%s","source":"fingerprint"}' % key
        )
        # a pointer read is not a store request
        assert store.stats.requests == 0

    @pytest.mark.parametrize(
        "text",
        ["{", "", "[]", '{"key": 1, "source": "s"}', '{"key": "%s"}' % (
            "a" * 64), '{"key": "../x", "source": "s"}'],
        ids=["torn", "empty", "list", "int-key", "no-source", "not-a-key"],
    )
    def test_torn_or_malformed_entry_reads_as_absent(self, tmp_path, text):
        store = ResultStore(tmp_path)
        store.put_cell_entry(self.DIGEST, "a" * 64, "s")
        with open(os.path.join(store.root, "cells", self.DIGEST), "w") as f:
            f.write(text)
        assert store.cell_entry(self.DIGEST) is None

    def test_dangling_entry_is_counted_never_verified(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(campaign_key({"i": 2}), sample_set())
        store.put_cell_entry(self.DIGEST, "b" * 64, "s")  # no such key
        usage = store.usage()
        assert usage["cells"] == 1 and usage["campaigns"] == 1
        outcome = store.verify_all()
        assert outcome["ok"] and outcome["checked"] == 1


class TestStoreIntrospection:
    """The 1.6 sweep primitives behind `repro store stats|verify`."""

    def test_usage_counts_entries_and_bytes(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(campaign_key({"u": 1}), sample_set(), {"u": 1})
        store.put_report("r" * 64, {"suite": "tiny"})
        usage = store.usage()
        assert usage["campaigns"] == 1
        assert usage["reports"] == 1
        assert usage["payload_bytes"] > 0
        assert usage["total_bytes"] >= usage["payload_bytes"]
        assert usage["root"] == store.root

    def test_verify_all_clean_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.put(campaign_key({"v": 1}), sample_set())
        store.put_report("a" * 64, {"suite": "tiny"})
        outcome = store.verify_all()
        assert outcome["ok"]
        assert outcome["entries"] == 1
        assert outcome["reports"] == 1
        assert outcome["failures"] == []

    def test_verify_all_flags_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = campaign_key({"v": 2})
        store.put(key, sample_set())
        with open(store._payload_path(key), "a") as handle:
            handle.write('{"f":"evil","k":"sa1"}\n')
        outcome = store.verify_all()
        assert not outcome["ok"]
        assert any(key[:12] in failure for failure in outcome["failures"])
        diagnostic = store.verify_entry(key)
        assert diagnostic is not None and "sha256" in diagnostic

    def test_verify_entry_missing_meta(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = campaign_key({"v": 3})
        store.put(key, sample_set())
        os.remove(store._meta_path(key))
        assert "metadata" in store.verify_entry(key)


def _break_simulators(monkeypatch):
    """Any attempt to actually simulate explodes."""
    import repro.faultsim.campaign as campaign_module
    import repro.scenarios.engine as engine_module

    def boom(*args, **kwargs):
        raise AssertionError("simulator invoked on a store hit")

    monkeypatch.setattr(campaign_module, "decoder_campaign", boom)
    monkeypatch.setattr(campaign_module, "scheme_campaign", boom)
    monkeypatch.setattr(engine_module, "_map_jobs", boom)


class TestEngineCaching:
    @pytest.mark.parametrize("family", sorted(CAMPAIGNS))
    def test_identical_rerun_is_hit_without_simulation(
        self, family, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        first = CAMPAIGNS[family](CampaignEngine(store=store))
        assert not first.from_store
        assert first.store_key is not None

        _break_simulators(monkeypatch)
        second = CAMPAIGNS[family](CampaignEngine(store=store))
        assert second.from_store
        assert second == first
        assert second.summary() == first.summary()

    def test_policy_change_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        run_transient_campaign(CampaignEngine(store=store))
        run_transient_campaign(CampaignEngine(collapse=False, store=store))
        # keyed separately (collapse is part of the policy)
        assert store.stats.hits == 0
        assert store.stats.puts == 2

    def test_engine_does_not_change_the_key(self, tmp_path):
        # vector and serial are record-identical and share one key, but
        # the serial oracle always simulates: it refreshes the vector
        # artifact instead of being served it
        store = ResultStore(tmp_path)
        first = run_transient_campaign(CampaignEngine(store=store))
        oracle = run_transient_campaign(
            CampaignEngine(engine="serial", store=store)
        )
        assert not oracle.from_store
        assert oracle.store_key == first.store_key
        assert oracle.records == first.records
        assert store.stats.puts == 2 and store.stats.hits == 0
        # a vector re-run is a verified hit on the serial artifact
        again = run_transient_campaign(CampaignEngine(store=store))
        assert again.from_store
        assert again.provenance.engine == "serial"
        assert store.stats.hits == 1

    def test_workers_and_chunk_do_not_change_the_key(self, tmp_path):
        store = ResultStore(tmp_path)
        run_transient_campaign(CampaignEngine(store=store, chunk=64))
        hit = run_transient_campaign(CampaignEngine(store=store, chunk=7))
        assert hit.from_store

    def test_no_cache_reruns_but_refreshes(self, tmp_path):
        store = ResultStore(tmp_path)
        run_transient_campaign(CampaignEngine(store=store))
        again = run_transient_campaign(
            CampaignEngine(store=store, cache=False)
        )
        assert not again.from_store
        assert store.stats.puts == 2

    def test_store_accepts_plain_path(self, tmp_path):
        engine = CampaignEngine(store=str(tmp_path / "by-path"))
        assert isinstance(engine.store, ResultStore)
        run_transient_campaign(engine)
        assert engine.store.stats.puts == 1

    def test_custom_scheme_writer_is_never_cached(self, tmp_path):
        from repro.core.scheme import SelfCheckingMemory
        from repro.core.selection import select_code

        store = ResultStore(tmp_path)
        org = MemoryOrganization(64, 8, column_mux=4)
        memory = SelfCheckingMemory.from_selection(
            org, select_code(10, 1e-9)
        )

        def writer(mem):
            for address in range(mem.organization.words):
                mem.write(address, (0,) * mem.organization.bits)

        engine = CampaignEngine(store=store)
        result = engine.scheme(
            memory,
            Workload.uniform(1 << org.n, 64, seed=1),
            [CellStuckAt(5, 1, 1)],
            writer=writer,
        )
        assert result.store_key is None
        assert store.stats.puts == 0
        # provenance is still stamped on uncached runs
        assert result.provenance.campaign == "scheme"


FRESH_SERVED_CASES = {
    "decoder": lambda store: run_decoder_campaign(
        CampaignEngine(store=store)
    ),
    "scheme": lambda store: CAMPAIGNS["scheme"](CampaignEngine(store=store)),
    "transient": lambda store: run_transient_campaign(
        CampaignEngine(store=store)
    ),
    "march": lambda store: CAMPAIGNS["march"](CampaignEngine(store=store)),
    "decoder-workers2": lambda store: run_decoder_campaign(
        CampaignEngine(store=store, workers=2)
    ),
}


class TestFreshEqualsServed:
    """A fresh campaign and the same campaign served from the store are
    one value: same records, provenance and summary, and every record's
    fault is its printable identity on both paths."""

    @pytest.mark.parametrize("case", sorted(FRESH_SERVED_CASES))
    def test_cold_run_equals_warm_hit(self, case, tmp_path):
        store = ResultStore(tmp_path / "store")
        cold = FRESH_SERVED_CASES[case](store)
        warm = FRESH_SERVED_CASES[case](store)
        assert (cold.from_store, warm.from_store) == (False, True)
        assert warm.records == cold.records
        assert warm.provenances == cold.provenances
        assert warm.provenance is not None
        assert warm.summary() == cold.summary()
        assert warm == cold
        for result in (cold, warm):
            assert isinstance(result, ResultSet)
            assert all(isinstance(r.fault, str) for r in result.records)


class TestShardResume:
    def scenarios(self):
        return [
            TransientScenario.single(a, bit=a % 9, cycle=a % 40)
            for a in range(0, 32, 2)
        ]

    def run(self, store, workers=4):
        org = MemoryOrganization(32, 8, column_mux=4)
        return CampaignEngine(store=store, workers=workers).transient(
            BehavioralRAM(org),
            self.scenarios(),
            Workload.scrubbed(32, 300, scrub_period=4, seed=2),
        )

    def test_workers_run_checkpoints_then_prunes_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        result = self.run(store)
        # one checkpoint per shard + the full entry were written...
        assert store.stats.puts == 5
        assert result.total == len(self.scenarios())
        # ...but a completed campaign leaves exactly one store entry:
        # the full key supersedes (and prunes) the shard checkpoints
        assert store.keys(include_shards=True) == [result.store_key]
        assert len(store.entries()) == 1
        assert store.resolve(result.store_key[:8]) == result.store_key

    def test_interrupted_run_resumes_from_completed_shards(
        self, tmp_path, monkeypatch
    ):
        import repro.scenarios.engine as engine_module

        store = ResultStore(tmp_path)
        real_map_jobs = engine_module._map_jobs
        calls = []

        def dies_after_first_shard(*args, **kwargs):
            if calls:
                raise RuntimeError("interrupted")
            calls.append(1)
            return real_map_jobs(*args, **kwargs)

        monkeypatch.setattr(
            engine_module, "_map_jobs", dies_after_first_shard
        )
        with pytest.raises(RuntimeError, match="interrupted"):
            self.run(store)
        # shard 0 checkpointed; full key never written
        assert len(store.keys(include_shards=True)) == 1
        assert store.keys() == []

        # resume: only the three missing shards are simulated
        resumed_calls = []

        def counting(*args, **kwargs):
            resumed_calls.append(1)
            return real_map_jobs(*args, **kwargs)

        monkeypatch.setattr(engine_module, "_map_jobs", counting)
        resumed = self.run(store)
        assert len(resumed_calls) == 3
        assert not resumed.from_store  # re-assembled, not full-key hit
        clean = self.run(ResultStore(tmp_path / "clean"))
        assert resumed.records == clean.records

    def test_partially_resumed_records_have_uniform_identity(
        self, tmp_path, monkeypatch
    ):
        """Resumed and fresh shards must agree on fault identity type
        (the printable string), never mix strings with live objects."""
        import repro.scenarios.engine as engine_module

        store = ResultStore(tmp_path)
        real_map_jobs = engine_module._map_jobs
        calls = []

        def dies_after_first_shard(*args, **kwargs):
            if calls:
                raise RuntimeError("interrupted")
            calls.append(1)
            return real_map_jobs(*args, **kwargs)

        monkeypatch.setattr(
            engine_module, "_map_jobs", dies_after_first_shard
        )
        with pytest.raises(RuntimeError):
            self.run(store)
        monkeypatch.setattr(engine_module, "_map_jobs", real_map_jobs)
        resumed = self.run(store)
        assert all(
            isinstance(record.fault, str) for record in resumed.records
        )

    def test_shard_results_identical_to_unsharded(self, tmp_path):
        sharded = self.run(ResultStore(tmp_path / "a"), workers=3)
        plain = self.run(None, workers=None)
        assert [
            (r.kind, r.first_detection, r.first_error)
            for r in sharded.records
        ] == [
            (r.kind, r.first_detection, r.first_error)
            for r in plain.records
        ]


class TestDesignFlowCaching:
    def test_empirical_hits_and_references_the_artifact(self, tmp_path):
        from repro import DesignEngine, DesignSpec

        spec = DesignSpec(words=256, bits=8, c=10, pndc=1e-9)
        engine = DesignEngine(store=str(tmp_path))
        first = engine.empirical(spec, cycles=64)
        assert first.result_key is not None and not first.store_hit

        second = DesignEngine(store=str(tmp_path)).empirical(spec, cycles=64)
        assert second.store_hit
        assert second.result_key == first.result_key
        # the referenced artifact is openable and matches the report
        artifact = engine.store.get(first.result_key)
        assert artifact.total == first.faults
        assert artifact.provenance.spec["words"] == 256

    def test_evaluate_report_cache(self, tmp_path):
        from repro import DesignEngine, DesignSpec

        spec = DesignSpec(words=2048, bits=16, c=10, pndc=1e-9)
        first = DesignEngine(store=str(tmp_path)).evaluate(spec)
        second = DesignEngine(store=str(tmp_path)).evaluate(spec)
        assert second.to_dict() == first.to_dict()
        # context changes invalidate: different safety parameters
        third = DesignEngine(
            store=str(tmp_path), fault_rate_per_hour=2e-5
        ).evaluate(spec)
        assert third.safety.fault_rate_per_hour == 2e-5

    def test_explicit_plan_bypasses_the_report_cache(self, tmp_path):
        from repro import DesignEngine, DesignSpec

        spec = DesignSpec(words=2048, bits=16, c=10, pndc=1e-9)
        engine = DesignEngine(store=str(tmp_path))
        default = engine.evaluate(spec)
        # a pinned-code plan must not be served the default-plan report
        custom = engine.plan(spec.replace(row_code="5-out-of-9"))
        overridden = engine.evaluate(spec, plan=custom)
        assert overridden.row.code == "5-out-of-9"
        assert overridden.row.code != default.row.code
        # and it must not poison the cache for later plain evaluates
        assert engine.evaluate(spec).row.code == default.row.code

    def test_sweep_served_from_store_on_rerun(self, tmp_path):
        from repro import DesignEngine, DesignSpec
        from repro.memory.organization import PAPER_ORGS

        specs = DesignSpec.grid(PAPER_ORGS[:2], [(10, 1e-9), (2, 1e-9)])
        first = DesignEngine(store=str(tmp_path)).sweep(specs)
        second = DesignEngine(store=str(tmp_path)).sweep(specs)
        assert [r.to_dict() for r in first] == [
            r.to_dict() for r in second
        ]


class TestDescribeTarget:
    def test_decoder_identity_is_exact(self):
        from test_results_api import checked_decoder

        a = describe_target(checked_decoder())
        b = describe_target(checked_decoder())
        assert a == b
        assert describe_target(checked_decoder(n_bits=5)) != a

    def test_ram_identity(self):
        org = MemoryOrganization(32, 8, column_mux=4)
        with_parity = describe_target(BehavioralRAM(org))
        without = describe_target(BehavioralRAM(org, with_parity=False))
        assert with_parity != without

    def test_default_repr_objects_never_leak_addresses(self):
        class Anon:
            pass

        material = describe_target(Anon())
        assert "0x" not in json.dumps(material)

    def test_parameterized_custom_targets_key_differently(self):
        """A custom checker with no __repr__ must not collapse to its
        bare class name — distinct configurations need distinct keys."""

        class ThresholdChecker:
            input_width = 5

            def __init__(self, threshold):
                self.threshold = threshold

        assert describe_target(ThresholdChecker(1)) != describe_target(
            ThresholdChecker(2)
        )
        assert describe_target(ThresholdChecker(1)) == describe_target(
            ThresholdChecker(1)
        )

    def test_cache_material_hook(self):
        class Custom:
            def cache_material(self):
                return {"rows": 3}

        assert describe_target(Custom()) == {
            "type": "Custom",
            "material": {"rows": 3},
        }


class TestResultsCli:
    def populate(self, tmp_path):
        store_root = str(tmp_path / "store")
        store = ResultStore(store_root)
        engine = CampaignEngine(store=store)
        org = MemoryOrganization(16, 4, column_mux=4)
        detected = engine.march(
            BehavioralRAM(org),
            [MemoryScenario(faults=(CellStuckAt(3, 1, 1),))],
            MATS_PLUS,
        )
        # a never-detected population: upsets on words the workload
        # never reads back
        silent = engine.transient(
            BehavioralRAM(MemoryOrganization(32, 8, column_mux=4)),
            [TransientScenario.single(31, bit=0, cycle=0)],
            Workload.explicit([0, 1, 2]),
        )
        return store_root, detected.store_key, silent.store_key

    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_ls_show_export(self, tmp_path, capsys):
        store_root, detected_key, silent_key = self.populate(tmp_path)
        assert self.run_cli(["results", "ls", "--store", store_root]) == 0
        out = capsys.readouterr().out
        assert "2 campaign(s)" in out
        assert detected_key[:12] in out

        assert (
            self.run_cli(
                ["results", "show", detected_key[:10], "--store", store_root]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "provenance" in out and "march" in out

        out_path = str(tmp_path / "export.jsonl")
        assert (
            self.run_cli(
                ["results", "export", detected_key, "--store", store_root,
                 "--out", out_path]
            )
            == 0
        )
        capsys.readouterr()
        exported = ResultSet.read_jsonl(out_path)
        assert exported == ResultStore(store_root).get(detected_key)

    def test_show_json_is_strict_json_with_zero_detections(
        self, tmp_path, capsys
    ):
        """Satellite regression: NaN must never reach --json output."""
        store_root, _, silent_key = self.populate(tmp_path)
        assert (
            self.run_cli(
                ["results", "show", silent_key, "--store", store_root,
                 "--json"]
            )
            == 0
        )
        out = capsys.readouterr().out
        payload = json.loads(
            out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}")
        )
        assert payload["summary"]["detected"] == 0
        assert payload["summary"]["mean_detection_cycle"] is None
        assert payload["by_kind"] == {
            "transient": {
                "faults": 1,
                "detected": 0,
                "coverage": 0.0,
                "mean_detection_cycle": None,
                "max_detection_cycle": None,
                "cycles_simulated": 3,
                "engine": "vector",
            }
        }

    def test_diff_exit_codes(self, tmp_path, capsys):
        store_root, detected_key, silent_key = self.populate(tmp_path)
        assert (
            self.run_cli(
                ["results", "diff", detected_key, detected_key,
                 "--store", store_root]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            self.run_cli(
                ["results", "diff", detected_key, silent_key,
                 "--store", store_root]
            )
            == 2
        )
        assert "only left" in capsys.readouterr().out

    def test_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert (
            self.run_cli(
                ["results", "ls", "--store", str(tmp_path / "absent")]
            )
            == 1
        )
        assert "no result store" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["payload_removed", "meta_torn"])
    @pytest.mark.parametrize("command", ["show", "diff", "export"])
    def test_incomplete_entry_is_a_one_line_error(
        self, tmp_path, capsys, command, damage
    ):
        """``resolve`` lists a key by its meta file; an entry whose
        payload is gone or whose meta does not parse must fail with one
        line naming the key, not crash on the missed read."""
        store_root, detected_key, silent_key = self.populate(tmp_path)
        if damage == "payload_removed":
            os.remove(os.path.join(store_root, f"{detected_key}.jsonl"))
        else:
            meta = os.path.join(store_root, f"{detected_key}.meta.json")
            with open(meta, "w") as handle:
                handle.write("{")
        out_path = tmp_path / "export.jsonl"
        argv = {
            "show": ["results", "show", detected_key[:10]],
            "diff": ["results", "diff", detected_key, silent_key],
            "export": ["results", "export", detected_key,
                       "--out", str(out_path)],
        }[command]
        assert self.run_cli(argv + ["--store", store_root]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.rstrip("\n")
        assert "\n" not in err
        assert err.startswith(f"error: store entry {detected_key} ")
        assert "incomplete" in err and "repro store verify" in err
        assert not out_path.exists()

    def test_campaign_command_store_round_trip(self, tmp_path, capsys):
        store_root = str(tmp_path / "cli-store")
        assert (
            self.run_cli(["march", "--store", store_root, "--json"]) == 0
        )
        first = json.loads(capsys.readouterr().out)["campaign"]["store"]
        assert first["misses"] > 0 and first["hits"] == 0
        assert (
            self.run_cli(["march", "--store", store_root, "--json"]) == 0
        )
        second = json.loads(capsys.readouterr().out)["campaign"]["store"]
        assert second["misses"] == 0
        assert second["hits"] == second["requests"] > 0
        assert second["verified"] == second["hits"]
        # --no-cache refreshes instead of serving
        assert (
            self.run_cli(
                ["march", "--store", store_root, "--no-cache", "--json"]
            )
            == 0
        )
        third = json.loads(capsys.readouterr().out)["campaign"]["store"]
        assert third["hits"] == 0 and third["puts"] > 0
