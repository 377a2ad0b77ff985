"""repro — reproduction of Kebichi, Zorian & Nicolaidis, DATE 1995:
"Area Versus Detection Latency Trade-Offs in Self-Checking Memory Design".

Public API highlights
---------------------

Quick path (the paper's design flow, via the unified design API)::

    from repro import DesignSpec, DesignEngine

    # declare the problem: a 2K x 16 RAM that must flag decoder faults
    # within 10 cycles with escape probability <= 1e-9
    spec = DesignSpec(words=2048, bits=16, c=10, pndc=1e-9)

    engine = DesignEngine()
    report = engine.evaluate(spec)   # structured DesignReport
    print(report.render())           # ...or report.to_json()

    memory = engine.build(spec)      # a working figure-3 memory
    memory.write(42, (1, 0) * 8)
    assert not memory.read(42).error_detected

Batch exploration: ``engine.sweep(DesignSpec.grid(...), workers=4)``.

Layer map
---------

=================  ========================================================
``repro.design``   the unified front door: DesignSpec -> DesignEngine ->
                   DesignReport, plus the code/checker/mapping registries
``repro.codes``    parity / Berger / m-out-of-n / two-rail / Hamming codes
``repro.circuits`` gate-level netlists, stuck-at faults, simulation
``repro.decoder``  the §III.2 decoder tree and its analytic fault analysis
``repro.rom``      NOR (ROM) matrices; decoder + ROM composition
``repro.checkers`` parity / m-out-of-n / two-rail / Berger checkers + TSC
                   property verifiers
``repro.memory``   behavioural RAM / ROM / CAM and memory fault models
``repro.area``     the §IV analytic model and the calibrated std-cell model
``repro.core``     code selection, mappings, latency math, the figure-3
                   scheme, safety model, trade-off explorer
``repro.scenarios`` the unified scenario layer: Workload stimuli,
                   FaultScenario hierarchy, CampaignEngine facade
``repro.results``  the unified results layer: provenance-stamped
                   ResultSet artifacts (streaming JSONL, merge/filter/
                   group_by/diff) + the content-addressed ResultStore
                   campaign cache
``repro.faultsim`` fault-injection campaigns: the NumPy lane-array
                   vector engine (default) + the serial reference
                   oracle
``repro.suite``    the batch layer: declarative SuiteSpec campaign
                   matrices, a pooled SuiteRunner with store-backed
                   resume, SuiteReport aggregation, the built-in
                   paper_grid suite
``repro.service``  the traffic layer: an HTTP/JSON job service over
                   the suite runner and the shared store — persistent
                   JobQueue, CampaignService worker pool, stdlib
                   server + ServiceClient (``repro serve``)
``repro.analysis`` the static layer: registry-driven design linter +
                   TSC property prover — ``analyze(obj)`` over netlists,
                   checkers, decoders, built memories and suite specs
                   (``repro lint``)
``repro.analytics`` the trend layer: bench-history loading, windowed
                   regression detection, provenance-grouped store/
                   service trends, JSON + HTML reporting
                   (``repro analytics regress|report``)
``repro.experiments``  regenerators for every table/figure of the paper
=================  ========================================================

Campaign quick path (1.3+)::

    from repro import CampaignEngine, Workload, TransientScenario

    engine = CampaignEngine(store=".repro-store")  # cached campaigns (1.4)
    result = engine.transient(
        ram,
        [TransientScenario.single(address=5, bit=2, cycle=100)],
        Workload.scrubbed(words=256, cycles=4096, scrub_period=8, seed=1),
    )
    # result is a ResultSet: provenance-stamped, JSONL-able.  An
    # identical re-run is now a verified store hit — the simulator is
    # never invoked; inspect with `repro results ls/show/diff`

Suite quick path (1.5+)::

    from repro.suite import SuiteRunner, builtin_suite

    report = SuiteRunner(store=".repro-store", workers=4).run(
        builtin_suite("paper_grid")
    )
    # re-running resumes: every completed cell is a verified store hit
    # (CLI: `repro suite run paper_grid --store .repro-store`)

Service quick path (1.6+)::

    from repro import CampaignService, ServiceClient
    from repro.service import serving

    with CampaignService(store=".repro-store", workers=2) as service:
        with serving(service) as url:        # or: repro serve
            client = ServiceClient(url)
            job = client.submit("paper_grid")
            job = client.wait(job["job_id"])
            # a re-submitted identical suite completes as verified
            # store hits — the simulator is never invoked

Static-analysis quick path (1.8+)::

    from repro import DesignSpec, analyze

    report = analyze(DesignSpec(words=2048, bits=16))
    assert report.ok                     # TSC properties proven, not sampled
    print(report.render())               # ...or report.to_json()
    # CLI: `repro lint 16x2K --strict`; build-time gate:
    # `DesignEngine().build(spec, lint=True)` raises AnalysisError

Trend-analytics quick path (1.9+)::

    from repro.analytics import build_report, run_regress

    gate = run_regress("BENCH_*.history.jsonl")   # windowed baselines
    assert gate.ok, gate.render()                 # exit-2 contract
    html = build_report(store=".repro-store").to_html()
    # CLI: `repro analytics regress` (CI's bench-regress gate) and
    # `repro analytics report --out report.html`
"""

from repro.analysis import AnalysisError, AnalysisReport, analyze
from repro.area.model import PaperAreaModel
from repro.area.stdcell import StdCellAreaModel
from repro.codes.m_out_of_n import MOutOfNCode, maximal_code_for_width
from repro.codes.parity import ParityCode
from repro.core.latency import (
    escape_probability,
    pndc,
    worst_escape_over_blocks,
)
from repro.core.mapping import (
    IdentityMapping,
    ModAMapping,
    ParityMapping,
    mapping_for_code,
)
from repro.core.safety import SafetyModel
from repro.core.scheme import ReadResult, SelfCheckingMemory
from repro.core.selection import (
    CodeSelection,
    SelectionPolicy,
    select_code,
    select_zero_latency_code,
)
from repro.core.tradeoff import TradeoffExplorer
from repro.design import DesignEngine, DesignReport, DesignSpec
from repro.memory.organization import (
    PAPER_ORGS,
    MemoryOrganization,
    paper_org,
)
from repro.results import (
    Provenance,
    ResultSet,
    ResultStore,
)
from repro.scenarios import (
    CampaignEngine,
    FaultScenario,
    MemoryScenario,
    StructuralScenario,
    TransientScenario,
    Workload,
)
from repro.service import CampaignService, ServiceClient

__version__ = "2.3.0"

__all__ = [
    "__version__",
    "analyze",
    "AnalysisReport",
    "AnalysisError",
    "DesignSpec",
    "DesignEngine",
    "DesignReport",
    "CampaignEngine",
    "CampaignService",
    "ServiceClient",
    "Workload",
    "ResultSet",
    "ResultStore",
    "Provenance",
    "FaultScenario",
    "StructuralScenario",
    "MemoryScenario",
    "TransientScenario",
    "MOutOfNCode",
    "maximal_code_for_width",
    "ParityCode",
    "select_code",
    "select_zero_latency_code",
    "SelectionPolicy",
    "CodeSelection",
    "ModAMapping",
    "ParityMapping",
    "IdentityMapping",
    "mapping_for_code",
    "escape_probability",
    "worst_escape_over_blocks",
    "pndc",
    "SelfCheckingMemory",
    "ReadResult",
    "SafetyModel",
    "TradeoffExplorer",
    "MemoryOrganization",
    "PAPER_ORGS",
    "paper_org",
    "PaperAreaModel",
    "StdCellAreaModel",
]
