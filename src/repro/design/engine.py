"""`DesignEngine` — the canonical front door of the library.

One object owns the paper's whole design flow::

    spec   = DesignSpec(words=2048, bits=16, c=10, pndc=1e-9)
    engine = DesignEngine()
    memory = engine.build(spec)       # a working SelfCheckingMemory
    report = engine.evaluate(spec)    # a structured DesignReport
    grid   = engine.sweep(specs, workers=4)   # parallel exploration

``build`` assembles the figure-3 scheme through the registries (so
plugin codes work), ``evaluate`` produces the machine-readable
:class:`~repro.design.report.DesignReport`, and ``sweep`` batches
evaluations over many specs with :mod:`concurrent.futures` — the
trade-off-exploration hot path.

``evaluate(spec, empirical=True)`` additionally *measures* the analytic
guarantees: an exhaustive stuck-at campaign on the built scheme's row
checked decoder, driven by the vector engine of
:mod:`repro.faultsim.vectorsim`, attached to the report as
:class:`~repro.design.report.EmpiricalReport`.
"""

from __future__ import annotations

import math
import time
from concurrent import futures
from typing import Iterable, List, Optional, Sequence

from repro.area.model import PaperAreaModel
from repro.area.stdcell import StdCellAreaModel
from repro.core.plan import MemoryCodePlan, plan_memory_codes
from repro.core.safety import SafetyModel
from repro.core.scheme import SelfCheckingMemory
from repro.core.selection import (
    evaluate_code,
    select_zero_latency_code,
)
from repro.design.report import (
    AreaReport,
    DesignReport,
    EmpiricalReport,
    SafetyReport,
    decoder_check_report,
)
from repro.design.spec import DesignSpec

__all__ = ["DesignEngine"]

#: seed of the default empirical measurement — part of the report-cache
#: key, so it lives once (evaluate/empirical defaults and report_key
#: all reference it)
DEFAULT_EMPIRICAL_SEED = 7


class DesignEngine:
    """Executes the design flow: plan, build, evaluate, sweep.

    The engine carries the evaluation context that is *not* part of the
    design problem itself: the two area models and the §II safety
    parameters.  Specs stay pure data; engines stay cheap to construct.
    """

    def __init__(
        self,
        std_model: Optional[StdCellAreaModel] = None,
        analytic_model: Optional[PaperAreaModel] = None,
        fault_rate_per_hour: float = 1e-5,
        decoder_area_fraction: float = 0.1,
        store=None,
        cache: bool = True,
    ):
        self.std_model = std_model or StdCellAreaModel()
        self.analytic_model = analytic_model or PaperAreaModel()
        self.fault_rate_per_hour = fault_rate_per_hour
        self.decoder_area_fraction = decoder_area_fraction
        # artifact policy (1.4): a repro.results.ResultStore (or root
        # path) caches empirical campaigns content-addressed and whole
        # DesignReports in its side table; cache=False refreshes entries
        from repro.results import ResultStore

        self.store = ResultStore.coerce(store)
        self.cache = cache

    # -- the flow ------------------------------------------------------------

    def plan(self, spec: DesignSpec) -> MemoryCodePlan:
        """Size both decoders' codes for a spec (§III.2)."""
        organization = spec.organization
        if spec.row_code is not None:
            from repro.design.registry import resolve_code

            row = evaluate_code(
                resolve_code(spec.row_code), spec.c, spec.pndc
            )
            if spec.column_zero_latency:
                column = select_zero_latency_code(organization.s)
            else:
                column = row
            return MemoryCodePlan(
                organization=organization, row=row, column=column
            )
        return plan_memory_codes(
            organization,
            spec.c,
            spec.pndc,
            policy=spec.policy,
            column_zero_latency=spec.column_zero_latency,
        )

    def build(
        self,
        spec: DesignSpec,
        plan: Optional[MemoryCodePlan] = None,
        lint: bool = False,
    ) -> SelfCheckingMemory:
        """Assemble the figure-3 self-checking memory for a spec.

        ``lint=True`` statically analyzes the built memory and raises
        :class:`~repro.analysis.AnalysisError` on any error finding —
        catching a mis-wired design before a single cycle is simulated.
        """
        plan = plan or self.plan(spec)
        memory = SelfCheckingMemory(
            spec.organization,
            plan.row_mapping(),
            plan.column_mapping(),
            structural_checkers=spec.structural_checkers,
            decoder_style=spec.decoder_style,
        )
        memory.selection = plan.row
        if lint:
            from repro.analysis import AnalysisError, analyze

            report = analyze(memory)
            if not report.ok:
                raise AnalysisError(report)
        return memory

    def empirical(
        self,
        spec: DesignSpec,
        plan: Optional[MemoryCodePlan] = None,
        memory: Optional[SelfCheckingMemory] = None,
        cycles: int = 256,
        seed: int = DEFAULT_EMPIRICAL_SEED,
        engine: str = "vector",
        workers: Optional[int] = None,
    ) -> EmpiricalReport:
        """Measure the guarantees by exhaustive row-decoder fault injection.

        Builds the scheme (unless ``memory`` is given), injects every
        stuck-at fault of the row decoder tree + ROM, drives the spec's
        workload against the row decoder (``spec.workload``; default
        ``cycles`` uniform random addresses), and summarises detection —
        the empirical counterpart of the report's analytic ``Pndc``
        column.

        The campaign routes through :class:`repro.scenarios.
        CampaignEngine` under this engine's artifact policy: with a
        ``store`` configured, identical measurements are served from
        disk (``EmpiricalReport.store_hit``) and the report carries the
        ``result_key`` of the full record-level artifact.
        """
        from repro.faultsim.injector import decoder_fault_list
        from repro.scenarios.engine import CampaignEngine
        from repro.scenarios.workload import Workload, named_workload

        memory = memory or self.build(spec, plan)
        checked = memory.row
        faults = decoder_fault_list(checked)
        space = 1 << spec.organization.p
        if spec.workload is None:
            workload = Workload.uniform(space, cycles, seed=seed)
        elif isinstance(spec.workload, str):
            workload = named_workload(spec.workload, space, cycles, seed)
        else:
            workload = spec.workload
        addresses = workload.address_list()
        if addresses and max(addresses) >= space:
            raise ValueError(
                f"workload {workload.label()} addresses exceed the "
                f"{space}-line row decoder of {spec.organization.label()}"
            )
        driver = CampaignEngine(
            engine=engine,
            workers=workers,
            store=self.store,
            cache=self.cache,
        )
        start = time.perf_counter()
        result = driver.decoder(
            checked,
            memory.row_checker,
            faults,
            workload,
            attach_analytic=False,
            spec=spec.to_dict(),
        )
        wall = time.perf_counter() - start

        sa0 = [r for r in result.records if r.kind == "sa0" and r.detected]
        mean = result.mean_detection_cycle()
        return EmpiricalReport(
            engine=engine,
            cycles=len(addresses),
            seed=seed,
            workload=workload.label(),
            faults=result.total,
            detected=result.detected,
            coverage=result.coverage,
            mean_detection_cycle=None if math.isnan(mean) else mean,
            max_detection_cycle=result.max_detection_cycle(),
            escape_fraction_at_c=result.escape_fraction_at(spec.c),
            zero_latency_sa0=all(r.latency == 0 for r in sa0),
            wall_time_s=wall,
            faults_per_sec=result.total / wall if wall > 0 else 0.0,
            result_key=result.store_key,
            store_hit=result.from_store,
        )

    def evaluate(
        self,
        spec: DesignSpec,
        plan: Optional[MemoryCodePlan] = None,
        empirical: bool = False,
        empirical_cycles: int = 256,
        empirical_seed: int = DEFAULT_EMPIRICAL_SEED,
        engine: str = "vector",
        workers: Optional[int] = None,
    ) -> DesignReport:
        """Size a spec and report guarantees, area and safety.

        With ``empirical=True`` the report also carries a measured
        fault-injection summary (see :meth:`empirical`); ``engine`` and
        ``workers`` select the campaign engine for that measurement.

        With a ``store`` configured on the engine, whole reports cache
        in the store's side table keyed on (spec, evaluation policy,
        analytic context): re-evaluating an unchanged spec — including
        every spec of a repeated :meth:`sweep` — is served from disk.
        An explicit ``plan`` override bypasses the report cache (the
        plan is an arbitrary object the key cannot capture), and so does
        an empirical evaluation on the serial oracle, which always
        simulates.
        """
        report_key = None
        if self.store is not None and plan is None:
            report_key = self.report_key(
                spec,
                empirical=empirical,
                empirical_cycles=empirical_cycles,
                empirical_seed=empirical_seed,
            )
            if self.cache and not (empirical and engine == "serial"):
                cached = self.store.get_report(report_key)
                if cached is not None:
                    return DesignReport.from_dict(cached)
        plan = plan or self.plan(spec)
        organization = spec.organization

        breakdown = self.analytic_model.breakdown(
            organization, r_row=plan.r_row, r_column=plan.r_column
        )
        area = AreaReport(
            stdcell_overhead_percent=plan.overhead_percent(self.std_model),
            decoder_check_percent=100 * breakdown.decoder_check,
            parity_bit_percent=100 * breakdown.parity_bit,
            parity_checker_percent=100 * breakdown.parity_checker,
            total_percent=100 * breakdown.total,
        )

        safety_model = SafetyModel(
            fault_rate_per_hour=self.fault_rate_per_hour,
            decoder_area_fraction=self.decoder_area_fraction,
        )
        residual = safety_model.rate_with_scheme(plan.row.achieved_pndc)
        safety = SafetyReport(
            fault_rate_per_hour=self.fault_rate_per_hour,
            decoder_area_fraction=self.decoder_area_fraction,
            residual_rate_per_hour=residual,
            baseline_rate_per_hour=safety_model.rate_unprotected_decoders(),
            improvement_factor=safety_model.improvement_factor(
                plan.row.achieved_pndc
            ),
        )

        measured = None
        if empirical:
            measured = self.empirical(
                spec,
                plan=plan,
                cycles=empirical_cycles,
                seed=empirical_seed,
                engine=engine,
                workers=workers,
            )

        report = DesignReport(
            spec=spec,
            row=decoder_check_report(plan.row, 1 << organization.p),
            column=decoder_check_report(plan.column, 1 << organization.s),
            area=area,
            safety=safety,
            empirical=measured,
        )
        if report_key is not None:
            self.store.put_report(report_key, report.to_dict())
        return report

    def report_key(
        self,
        spec: DesignSpec,
        empirical: bool = False,
        empirical_cycles: int = 256,
        empirical_seed: int = DEFAULT_EMPIRICAL_SEED,
    ) -> str:
        """Content address of one evaluation: the spec, the evaluation
        policy and the engine's analytic context (area models, safety
        parameters) — everything a report's numbers depend on.  The
        campaign engine is not part of it: vector and serial runs are
        record-identical.  The defaults mirror :meth:`evaluate`, so
        callers that key an evaluation they ran with defaults get the
        same address."""
        from repro.results import campaign_key

        return campaign_key(
            {
                "format": 1,
                "kind": "design-report",
                "spec": spec.to_dict(),
                "empirical": {
                    "enabled": empirical,
                    "cycles": empirical_cycles,
                    "seed": empirical_seed,
                },
                "context": {
                    "fault_rate_per_hour": self.fault_rate_per_hour,
                    "decoder_area_fraction": self.decoder_area_fraction,
                    "std_model": vars(self.std_model),
                    "analytic_model": vars(self.analytic_model),
                },
            }
        )

    # -- batch exploration ---------------------------------------------------

    def sweep(
        self,
        specs: Iterable[DesignSpec],
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> List[DesignReport]:
        """Evaluate many specs; results keep the input order.

        ``workers=None`` (or <= 1) evaluates serially.  ``workers=N``
        fans out over a :class:`concurrent.futures` pool —
        ``executor="thread"`` (default; zero pickling cost) or
        ``executor="process"`` (true CPU parallelism; specs and the
        engine must stay picklable, which the built-in types are).

        Caveat for ``executor="process"``: runtime registrations in
        :mod:`repro.design.registry` (plugin codes/mappings/checkers)
        are not shipped to workers on spawn-start platforms
        (Windows/macOS) — workers re-import the registry module fresh.
        Register plugins at import time of a module the workers also
        import, or stay on the thread executor for plugin sweeps.
        """
        spec_list: Sequence[DesignSpec] = list(specs)
        if workers is None or workers <= 1:
            return [self.evaluate(spec) for spec in spec_list]
        if executor == "thread":
            pool_cls = futures.ThreadPoolExecutor
        elif executor == "process":
            pool_cls = futures.ProcessPoolExecutor
        else:
            raise ValueError(
                f"executor must be 'thread' or 'process', got {executor!r}"
            )
        with pool_cls(max_workers=workers) as pool:
            return list(pool.map(self.evaluate, spec_list))
