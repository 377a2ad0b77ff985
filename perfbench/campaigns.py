"""The campaign workload, ``fault_dense``.

It runs one scheme campaign the way a user does: a ``Workload`` value
goes into ``CampaignEngine(engine="vector", store=<fresh>).scheme``,
the records land in the store, and they are exported to JSONL.  The
end-to-end metrics are

* ``setup_s``     target build and fault list;
* ``campaign_s``  Workload value to records stored and exported, on a
  fresh store (cold);
* ``resumed_s``   the same call again on the warm store (a verified
  store hit) plus the export;
* ``cli_s``       a ``repro results export KEY --store S --out F``
  process from start to exit;
* ``peak_rss_mb`` this process's peak resident memory.

Campaigns pin ``engine="vector"``, the one fast engine; the serial
engine is the oracle, never timed.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict

import spans
from measure import (
    Outcome,
    Samples,
    canonical_lines,
    cli_import,
    digest,
    load_reference,
    metric_values,
    python_process,
    timed,
    until,
)

#: set-ups measured per cold sample (spread over the run)
SETUPS_PER_SAMPLE = 10
#: resumed calls per cold sample
RESUMED_PER_SAMPLE = 8
#: store-less fault-simulation calls per traced run
FAULTSIM_REPEATS = 3


@dataclass(frozen=True)
class CampaignSpec:
    name: str
    design: dict
    cycles: int
    #: the memory-fault population added to every decoder stuck-at
    memory_faults: str
    #: trace prefix the serial oracle replays
    oracle_cycles: int
    #: detected records the oracle re-checks per run; undetected
    #: records are always re-checked
    oracle_sample: int


WORKLOADS: Dict[str, CampaignSpec] = {
    "fault_dense": CampaignSpec(
        name="fault_dense",
        design=dict(words=2048, bits=16, column_mux=8, c=10, pndc=1e-9),
        cycles=16_384,
        memory_faults="memory-stuck-ats",
        oracle_cycles=4_096,
        oracle_sample=16,
    ),
}


# -- inputs ------------------------------------------------------------------


def build_target(spec: CampaignSpec):
    """The set-up: target build and fault list -> (memory, scenarios).
    The fault list is every decoder stuck-at, so the seed only picks
    the trace."""
    from repro import DesignEngine, DesignSpec
    from repro.faultsim.injector import decoder_fault_list
    from repro.scenarios import StructuralScenario
    from repro.suite.populations import build_population

    memory = DesignEngine().build(DesignSpec(**spec.design))
    scenarios = (
        [
            StructuralScenario(fault, "row")
            for fault in decoder_fault_list(memory.row)
        ]
        + [
            StructuralScenario(fault, "column")
            for fault in decoder_fault_list(memory.column)
        ]
        + build_population(spec.memory_faults, memory, {})
    )
    return memory, scenarios


def make_workload(spec: CampaignSpec, memory, seed: int, cycles=None):
    from repro import Workload

    space = 1 << memory.organization.n
    return Workload.uniform(space, cycles or spec.cycles, seed=seed)


# -- one campaign call -------------------------------------------------------


def campaign(memory, scenarios, workload, store_root, export_path, tracer):
    """Workload value -> records stored (CampaignEngine) -> exported.
    Returns the result and the store's hit counters of this call."""
    from repro import CampaignEngine

    engine = CampaignEngine(engine="vector", store=store_root)
    result = engine.scheme(memory, workload, scenarios)
    export = tracer.span("results.export") if tracer else nullcontext()
    with export:
        result.to_result_set().write_jsonl(export_path)
    return result, engine.store.stats


def _exported_digest(path: str) -> str:
    from repro.results import ResultSet

    return digest(canonical_lines(ResultSet.read_jsonl(path).records))


# -- correctness -------------------------------------------------------------


def check_reference(spec, seed, lines, records, outcome: Outcome) -> None:
    """Committed digest and counts, when this seed has a reference."""
    reference = load_reference()[spec.name].get(str(seed))
    if reference is None:
        return
    detected = sum(1 for r in records if r.first_detection is not None)
    outcome.check(
        digest(lines) == reference["digest"]
        and len(records) == reference["faults"]
        and detected == reference["detected"],
        f"seed {seed}: records differ from the committed reference",
    )


def check_oracle(spec, memory, scenarios, records, seed, outcome) -> None:
    """Re-run a seeded sample of the records (and every undetected one)
    on the serial oracle over a trace prefix; first detections must
    match exactly."""
    from repro.faultsim.campaign import scheme_campaign
    from repro.results import fault_id

    detected = [
        i for i, r in enumerate(records) if r.first_detection is not None
    ]
    undetected = [
        i for i, r in enumerate(records) if r.first_detection is None
    ]
    if len(detected) > spec.oracle_sample:
        detected = random.Random(seed).sample(detected, spec.oracle_sample)
    chosen = sorted(detected + undetected)
    prefix = make_workload(
        spec, memory, seed, min(spec.cycles, spec.oracle_cycles)
    )
    oracle = scheme_campaign(
        memory,
        prefix,
        engine="serial",
        **_fault_kwargs([scenarios[i] for i in chosen]),
    )
    horizon = len(prefix)
    for index, expected in zip(chosen, oracle.records):
        record = records[index]
        first = record.first_detection
        if first is not None and first >= horizon:
            first = None
        outcome.check(
            fault_id(record.fault) == fault_id(expected.fault)
            and record.kind == expected.kind
            and first == expected.first_detection,
            f"record {index} ({fault_id(record.fault)}): vector "
            f"{record.first_detection} vs serial {expected.first_detection}",
        )


# -- the run -----------------------------------------------------------------


def _fault_kwargs(scenarios) -> dict:
    """``scheme_campaign`` fault lists from scenario values."""
    from repro.scenarios import MemoryScenario

    structural = [s for s in scenarios if not isinstance(s, MemoryScenario)]
    return dict(
        row_faults=[s.fault for s in structural if s.axis == "row"],
        column_faults=[s.fault for s in structural if s.axis == "column"],
        memory_faults=[
            s.fault for s in scenarios if isinstance(s, MemoryScenario)
        ],
    )


class CampaignRun:
    """One run of a campaign workload: its inputs, samples and checks."""

    def __init__(self, name: str, seed: int, trace: bool, work: str):
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.outcome = Outcome()
        self.samples = Samples()
        self.tracer = spans.Tracer() if trace else None
        self.memory, self.scenarios = build_target(self.spec)
        self.workload = make_workload(self.spec, self.memory, seed)
        self.export_path = os.path.join(work, "export.jsonl")
        self.expected = ""

    def _campaign(self, store_root: str, traced: bool):
        """-> (result, store counters, seconds)"""
        (result, stats), elapsed = timed(
            campaign, self.memory, self.scenarios, self.workload,
            store_root, self.export_path, self.tracer if traced else None,
        )
        return result, stats, elapsed

    def _same(self, result) -> bool:
        return (
            digest(canonical_lines(result.records)) == self.expected
            and _exported_digest(self.export_path) == self.expected
        )

    def warm_up(self):
        """One uncounted campaign: fills lazy caches and fixes the
        records every later sample must reproduce."""
        store_root = tempfile.mkdtemp(prefix="store-", dir=self.work)
        first, _, _ = self._campaign(store_root, traced=False)
        shutil.rmtree(store_root)
        lines = canonical_lines(first.records)
        self.expected = digest(lines)
        self.outcome.check(
            len(first.records) == len(self.scenarios)
            and _exported_digest(self.export_path) == self.expected,
            f"{len(first.records)} records for {len(self.scenarios)} "
            f"scenarios, or the export differs",
        )
        check_reference(
            self.spec, self.seed, lines, first.records, self.outcome
        )
        return first

    def setups(self, traced: bool) -> None:
        """SETUPS_PER_SAMPLE timed set-ups; the targets are discarded."""
        for _ in range(SETUPS_PER_SAMPLE):
            mark = self.tracer.mark() if traced else 0
            _, elapsed = timed(build_target, self.spec)
            self.samples.add("setup_s", elapsed)
            if traced:
                window = self.tracer.since(mark)
                self.samples.add(
                    "design.build_s", spans.total_s(window, "design")
                )

    def sample(self, index: int) -> None:
        """Set-ups, one cold campaign on a fresh store, the resumed
        calls on it and, untraced, one CLI export.  In a traced run odd
        samples record spans and even ones run without them."""
        tracer, samples = self.tracer, self.samples
        traced = tracer is not None and index % 2 == 1
        store_root = tempfile.mkdtemp(prefix="store-", dir=self.work)
        patches = spans.install(tracer) if traced else None
        try:
            self.setups(traced)
            if traced:
                mark = tracer.mark()
                with tracer.span("campaign"):
                    result, _, elapsed = self._campaign(store_root, True)
                window = tracer.since(mark)
                samples.extend(spans.cold_layers(window))
                samples.add(
                    "trace.coverage", spans.coverage(window, window[-1])
                )
                samples.add("traced_s", elapsed)
            else:
                result, _, elapsed = self._campaign(store_root, False)
                samples.add(
                    "campaign_s" if tracer is None else "untraced_s", elapsed
                )
            self.outcome.check(
                self._same(result), f"cold sample {index}: records changed"
            )
            for _ in range(RESUMED_PER_SAMPLE):
                mark = tracer.mark() if traced else 0
                result, stats, elapsed = self._campaign(store_root, traced)
                if traced:
                    samples.extend(spans.resumed_layers(tracer.since(mark)))
                    samples.add("store.hits", stats.hits)
                    samples.add("store.verified", stats.verified)
                samples.add("resumed_s", elapsed)
                self.outcome.check(
                    result.from_store and self._same(result),
                    f"resumed sample {index}: not a store hit, or records "
                    f"changed",
                )
        finally:
            if patches is not None:
                patches.undo()
        if tracer is None:
            self.cli_export(result.store_key, store_root)
        shutil.rmtree(store_root)

    def cli_export(self, key: str, store_root: str) -> None:
        path = os.path.join(self.work, "cli-export.jsonl")
        done, elapsed = python_process(
            [
                "-m", "repro", "results", "export", key,
                "--store", store_root, "--out", path,
            ]
        )
        self.samples.add("cli_s", elapsed)
        self.outcome.check(
            done.returncode == 0 and _exported_digest(path) == self.expected,
            f"cli export exited {done.returncode}: "
            f"{done.stderr.strip()[-200:]}",
        )

    def faultsim_layer(self) -> None:
        """Store-less ``scheme_campaign`` on a prebuilt trace, untraced."""
        from repro.faultsim.campaign import scheme_campaign

        addresses = self.workload.address_list()
        kwargs = _fault_kwargs(self.scenarios)
        for _ in range(FAULTSIM_REPEATS):
            result, elapsed = timed(
                scheme_campaign, self.memory, addresses, engine="vector",
                **kwargs,
            )
            cycles = sum(
                len(addresses) if r.first_detection is None
                else r.first_detection + 1
                for r in result.records
            )
            self.samples.add("faultsim.campaign_s", elapsed)
            self.samples.add("faultsim.fault_cycles", cycles)
            self.samples.add("faultsim.fault_cycles_per_s", cycles / elapsed)


def run(name: str, seed: int, seconds: float, trace: bool, work: str):
    """One benchmark run -> (metric values, Outcome, tracer, Samples)."""
    state = CampaignRun(name, seed, trace, work)
    first = state.warm_up()
    for index in until(seconds):
        state.sample(index)
    if state.tracer is not None:
        state.faultsim_layer()
        cli_import(state.samples, state.outcome)
    # read before the oracle replay, whose memory is not measured
    values = metric_values(state.samples, trace)
    check_oracle(
        state.spec, state.memory, state.scenarios, first.records, seed,
        state.outcome,
    )
    return values, state.outcome, state.tracer, state.samples
