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

Names load on first use
-----------------------

``import repro`` runs no layer: every name in ``__all__`` here and in
the subpackages below (except :mod:`repro.analysis`, whose rule
modules must register before ``RULES`` is read) resolves on first
access, through a PEP 562 module ``__getattr__`` built by
:func:`repro._lazy.lazy_exports`.  ``from repro import ResultStore``
therefore loads the stdlib-only results layer and nothing else, while
``from repro import DesignEngine`` pulls in the design flow and, with
it, NumPy.  The ``results``, ``store``, ``jobs``, ``fetch`` and
``submit`` commands start without NumPy.

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

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__version__ = "2.4.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.driver": ("analyze",),
        "repro.analysis.report": ("AnalysisReport", "AnalysisError"),
        "repro.design.spec": ("DesignSpec",),
        "repro.design.engine": ("DesignEngine",),
        "repro.design.report": ("DesignReport",),
        "repro.scenarios.engine": ("CampaignEngine",),
        "repro.service.service": ("CampaignService",),
        "repro.service.client": ("ServiceClient",),
        "repro.scenarios.workload": ("Workload",),
        "repro.results.resultset": ("ResultSet", "Provenance"),
        "repro.results.store": ("ResultStore",),
        "repro.scenarios.faults": (
            "FaultScenario",
            "StructuralScenario",
            "MemoryScenario",
            "TransientScenario",
        ),
        "repro.codes.m_out_of_n": ("MOutOfNCode", "maximal_code_for_width"),
        "repro.codes.parity": ("ParityCode",),
        "repro.core.selection": (
            "select_code",
            "select_zero_latency_code",
            "SelectionPolicy",
            "CodeSelection",
        ),
        "repro.core.mapping": (
            "ModAMapping",
            "ParityMapping",
            "IdentityMapping",
            "mapping_for_code",
        ),
        "repro.core.latency": (
            "escape_probability",
            "worst_escape_over_blocks",
            "pndc",
        ),
        "repro.core.scheme": ("SelfCheckingMemory", "ReadResult"),
        "repro.core.safety": ("SafetyModel",),
        "repro.core.tradeoff": ("TradeoffExplorer",),
        "repro.memory.organization": (
            "MemoryOrganization",
            "PAPER_ORGS",
            "paper_org",
        ),
        "repro.area.model": ("PaperAreaModel",),
        "repro.area.stdcell": ("StdCellAreaModel",),
    },
)
__all__.insert(0, "__version__")

if TYPE_CHECKING:
    from repro.analysis.driver import analyze  # noqa: F401
    from repro.analysis.report import (  # noqa: F401
        AnalysisError,
        AnalysisReport,
    )
    from repro.area.model import PaperAreaModel  # noqa: F401
    from repro.area.stdcell import StdCellAreaModel  # noqa: F401
    from repro.codes.m_out_of_n import (  # noqa: F401
        MOutOfNCode,
        maximal_code_for_width,
    )
    from repro.codes.parity import ParityCode  # noqa: F401
    from repro.core.latency import (  # noqa: F401
        escape_probability,
        pndc,
        worst_escape_over_blocks,
    )
    from repro.core.mapping import (  # noqa: F401
        IdentityMapping,
        ModAMapping,
        ParityMapping,
        mapping_for_code,
    )
    from repro.core.safety import SafetyModel  # noqa: F401
    from repro.core.scheme import ReadResult, SelfCheckingMemory  # noqa: F401
    from repro.core.selection import (  # noqa: F401
        CodeSelection,
        SelectionPolicy,
        select_code,
        select_zero_latency_code,
    )
    from repro.core.tradeoff import TradeoffExplorer  # noqa: F401
    from repro.design.engine import DesignEngine  # noqa: F401
    from repro.design.report import DesignReport  # noqa: F401
    from repro.design.spec import DesignSpec  # noqa: F401
    from repro.memory.organization import (  # noqa: F401
        PAPER_ORGS,
        MemoryOrganization,
        paper_org,
    )
    from repro.results.resultset import Provenance, ResultSet  # noqa: F401
    from repro.results.store import ResultStore  # noqa: F401
    from repro.scenarios.engine import CampaignEngine  # noqa: F401
    from repro.scenarios.faults import (  # noqa: F401
        FaultScenario,
        MemoryScenario,
        StructuralScenario,
        TransientScenario,
    )
    from repro.scenarios.workload import Workload  # noqa: F401
    from repro.service.client import ServiceClient  # noqa: F401
    from repro.service.service import CampaignService  # noqa: F401
