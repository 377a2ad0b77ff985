"""`SuiteRunner` — schedule campaign cells over a bounded process pool.

Execution contract per cell:

* the cell's store key is looked up first — a hit is served from disk,
  hash-verified, and the simulator is never invoked (this is what makes
  a re-run of a suite against the same store a *resume*);
* a campaign cell with a current entry in the store's cell index
  (``<store>/cells/``) builds nothing: the entry names the cell's store
  key, so the hit costs the verified read alone — no target, fault list
  or key material is built;
* a miss runs the campaign through the matching
  :class:`~repro.scenarios.CampaignEngine` /
  :class:`~repro.design.engine.DesignEngine` path and stores the
  artifact;
* failures are captured **fail-soft**: one bad cell becomes an
  ``error`` outcome with a one-line diagnostic, and the rest of the
  suite still runs.

The cell index.  After a campaign cell (``decoder``, ``scheme``,
``transient`` or ``march``) yields a store key, hit or run, the runner
points the digest of the cell (its dict without the id) at that key,
stamped with :func:`source_fingerprint`.  A later run of the cell whose
policy reads the store (``cache`` on, engine not ``serial``) and finds
an entry with the current fingerprint serves ``store.get(key)``; every
other case — no entry, a torn one, another fingerprint, a key that is
gone — takes the path above and rewrites the entry.  A source edit
therefore invalidates every entry, and the index is neither read nor
written while a registry holds an entry defined outside ``repro`` (a
plugin can change what a cell builds without any source edit).  Design
cells keep their path: their report key comes from the spec alone.

``workers=N`` schedules cells over a bounded
:class:`concurrent.futures.ProcessPoolExecutor` (each worker opens the
store at the same root; the content-addressed protocol makes concurrent
writers safe).  A ``progress`` callable streams per-cell events as the
suite advances.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent import futures
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.results import ResultStore, canonical_json, content_digest
from repro.suite.report import CellOutcome, SuiteReport
from repro.suite.spec import CampaignCell, SuiteSpec

__all__ = ["SuiteRunner", "execute_cell", "source_fingerprint"]

#: progress callback signature: receives dicts like
#: ``{"event": "done", "cell": id, "index": 3, "total": 46,
#:    "status": "hit", "wall_time_s": 0.01}``.  Serial runs emit a
#: ``"start"``/``"done"`` pair per cell; pooled runs (``workers=N``)
#: emit completion (``"done"``) events only — every cell is submitted
#: up front, so there is no meaningful per-cell start instant.
ProgressFn = Callable[[dict], None]


# -- workload / policy resolution ---------------------------------------------


def _resolve_workload(workload: Optional[dict], space: int):
    """A cell's workload dict -> a live Workload against ``space``."""
    from repro.scenarios import Workload, named_workload

    if workload is None:
        raise ValueError("this campaign family needs a workload")
    if "kind" in workload:
        return Workload.from_dict(workload)
    if "family" in workload:
        return named_workload(
            workload["family"],
            space,
            int(workload.get("cycles", 256)),
            seed=int(workload.get("seed", 0)),
        )
    raise ValueError(
        f"workload {workload!r} is neither a named family "
        f"({{'family': ..., 'cycles': ...}}) nor a full workload dict"
    )


def _campaign_engine(cell: CampaignCell, store, cache: bool):
    from repro.scenarios import CampaignEngine

    policy = cell.policy
    return CampaignEngine(
        engine=policy.get("engine", "vector"),
        collapse=policy.get("collapse", True),
        workers=policy.get("workers"),
        chunk=policy.get("chunk"),
        store=store,
        cache=cache,
    )


def _ram_target(target: dict):
    from repro.memory.organization import MemoryOrganization
    from repro.memory.ram import BehavioralRAM

    return BehavioralRAM(
        MemoryOrganization(
            words=int(target["words"]),
            bits=int(target["bits"]),
            column_mux=int(target.get("column_mux", 8)),
        ),
        with_parity=bool(target.get("parity", True)),
    )


def _population(cell: CampaignCell, target) -> List:
    from repro.suite.populations import build_population

    spec = cell.scenarios or {}
    name = spec.get("population")
    if not name:
        raise ValueError(f"cell {cell.cell_id!r} names no population")
    params = {k: v for k, v in spec.items() if k != "population"}
    return build_population(name, target, params)


# -- per-family execution -----------------------------------------------------


def _run_design(cell: CampaignCell, store, cache: bool):
    from repro.design.engine import DesignEngine
    from repro.design.spec import DesignSpec

    spec = DesignSpec.from_dict(cell.target)
    policy = cell.policy
    engine = DesignEngine(store=store, cache=cache)
    empirical = bool(policy.get("empirical", False))
    report = engine.evaluate(
        spec,
        empirical=empirical,
        empirical_cycles=int(policy.get("empirical_cycles", 256)),
        engine=policy.get("engine", "vector"),
        workers=policy.get("workers"),
    )
    summary = {
        "code": report.row.code,
        "a_final": report.row.a_final,
        "escape_per_cycle": str(report.row.escape_per_cycle),
        "area_overhead_percent": round(
            report.area.stdcell_overhead_percent, 4
        ),
    }
    key = None
    if store is not None:
        key = engine.report_key(
            spec,
            empirical=empirical,
            empirical_cycles=int(policy.get("empirical_cycles", 256)),
        )
    if report.empirical is not None:
        summary["empirical"] = {
            "faults": report.empirical.faults,
            "detected": report.empirical.detected,
            "coverage": report.empirical.coverage,
            "result_key": report.empirical.result_key,
        }
    provenance = {
        "campaign": "design",
        "spec": spec.to_dict(),
        "key": key,
    }
    # served-from-store is visible only through the counters: a pure
    # hit is requests == hits with nothing recomputed
    stats = store.stats if store is not None else None
    hit = (
        stats is not None
        and stats.hits > 0
        and stats.misses == 0
        and stats.puts == 0
    )
    return summary, provenance, key, hit


def _run_decoder(cell: CampaignCell, engine):
    from repro.design.engine import DesignEngine
    from repro.design.registry import checker_for
    from repro.design.spec import DesignSpec
    from repro.rom.nor_matrix import CheckedDecoder

    spec = DesignSpec.from_dict(cell.target)
    plan = DesignEngine().plan(spec)
    mapping = plan.row_mapping()
    checked = CheckedDecoder(mapping)
    checker = checker_for(mapping, structural=spec.structural_checkers)
    workload = _resolve_workload(cell.workload, 1 << spec.organization.p)
    faults = _population(cell, checked)
    result = engine.decoder(
        checked,
        checker,
        faults,
        workload,
        attach_analytic=False,
        spec=spec.to_dict(),
    )
    return result


def _run_scheme(cell: CampaignCell, engine):
    from repro.design.engine import DesignEngine
    from repro.design.spec import DesignSpec

    spec = DesignSpec.from_dict(cell.target)
    memory = DesignEngine().build(spec)
    workload = _resolve_workload(cell.workload, 1 << spec.organization.n)
    scenarios = _population(cell, memory)
    return engine.scheme(memory, workload, scenarios)


def _run_transient(cell: CampaignCell, engine):
    ram = _ram_target(cell.target)
    workload = _resolve_workload(cell.workload, ram.organization.words)
    scenarios = _population(cell, ram)
    return engine.transient(ram, scenarios, workload)


def _run_march(cell: CampaignCell, engine):
    from repro.memory.march import MARCH_TESTS

    ram = _ram_target(cell.target)
    name = (cell.workload or {}).get("test")
    if name not in MARCH_TESTS:
        raise ValueError(
            f"unknown march test {name!r}; known: {sorted(MARCH_TESTS)}"
        )
    scenarios = _population(cell, ram)
    return engine.march(ram, scenarios, MARCH_TESTS[name])


_CAMPAIGN_RUNNERS = {
    "decoder": _run_decoder,
    "scheme": _run_scheme,
    "transient": _run_transient,
    "march": _run_march,
}


# -- the cell index -----------------------------------------------------------

#: package root -> sha256 over its *.py files ("" when it has none),
#: hashed once per process.  No lock: threads racing on the first call
#: may each hash, and ``setdefault`` keeps one value; a lock held while
#: hashing could be inherited held by a pool worker forked meanwhile.
_SOURCE_DIGESTS: Dict[str, str] = {}


def _hash_sources(root: str) -> str:
    """sha256 over the relative path and bytes of every ``*.py`` file
    under ``root``, in path order; ``""`` when there is none."""
    digest = hashlib.sha256()
    found = False
    for base, dirs, names in os.walk(root):
        dirs.sort()
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(base, name)
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as handle:
                data = handle.read()
            digest.update(f"{relative}\0{len(data)}\0".encode())
            digest.update(data)
            found = True
    return digest.hexdigest() if found else ""


def _package_root() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def source_fingerprint() -> Optional[str]:
    """The fingerprint cell index entries are stamped with: a sha256
    over the source of the imported ``repro`` package and the march
    algorithms :data:`~repro.memory.march.MARCH_TESTS` defines (a
    public table that cells name).  ``None`` turns the index off: no
    ``.py`` file was found.

    The file hash is computed once per process; the march table, a
    mutable dict, is hashed on every call.  No version string or mtime
    enters it."""
    root = _package_root()
    sources = _SOURCE_DIGESTS.get(root)
    if sources is None:
        sources = _SOURCE_DIGESTS.setdefault(root, _hash_sources(root))
    if not sources:
        return None
    from repro.memory.march import MARCH_TESTS

    march = {
        name: [
            test.name,
            [[element.order, list(element.operations)]
             for element in test.elements],
        ]
        for name, test in MARCH_TESTS.items()
    }
    return content_digest(
        canonical_json({"sources": sources, "march": march})
    )


def _from_repro(obj: object) -> bool:
    module = getattr(obj, "__module__", None)
    return isinstance(module, str) and (
        module == "repro" or module.startswith("repro.")
    )


def _plugins_registered() -> bool:
    """Whether a registry entry or mapping selector comes from outside
    ``repro`` (an object with no ``__module__``, like a
    ``functools.partial``, counts as outside)."""
    from repro.design import registry
    from repro.suite.populations import POPULATIONS

    tables = (
        registry.CODES,
        registry.CHECKERS,
        registry.MAPPINGS,
        registry.DECODERS,
        POPULATIONS,
    )
    entries = [table.get(name) for table in tables for name in table.names()]
    entries += [predicate for predicate, _ in registry._MAPPING_SELECTORS]
    return not all(_from_repro(entry) for entry in entries)


def _index_source() -> Optional[str]:
    """The fingerprint to read or write the index under, ``None`` when
    the index is off for now (checked at every read and write)."""
    if _plugins_registered():
        return None
    return source_fingerprint()


def _run_campaign(cell: CampaignCell, store, cache: bool):
    """A campaign cell's result set, through the cell index where the
    engine's policy lets a stored result stand in for a simulation."""
    engine = _campaign_engine(cell, store, cache)
    run = _CAMPAIGN_RUNNERS[cell.family]
    if store is None:
        return run(cell, engine)
    material = cell.to_dict()
    del material["cell"]
    digest = content_digest(canonical_json(material))
    if engine._reads_store:
        source = _index_source()
        entry = store.cell_entry(digest) if source is not None else None
        if entry is not None and entry["source"] == source:
            cached = store.get(entry["key"])
            if cached is not None:
                cached.from_store = True
                return cached
    result = run(cell, engine)
    source = _index_source()
    if source is not None and result.store_key is not None:
        store.put_cell_entry(digest, result.store_key, source)
    return result


def execute_cell(
    cell_dict: dict, store_root: Optional[str], cache: bool = True
) -> dict:
    """Run (or serve) one cell; always returns an outcome dict.

    Module-level and dict-in/dict-out so the process pool can ship it;
    every worker opens its own :class:`ResultStore` at ``store_root``,
    which doubles as the per-cell hit/miss/verified counter.
    """
    cell = CampaignCell.from_dict(cell_dict)
    store = ResultStore(store_root) if store_root else None
    start = time.perf_counter()
    try:
        if cell.family == "design":
            summary, provenance, key, hit = _run_design(cell, store, cache)
            status = "hit" if hit else "ran"
        else:
            result = _run_campaign(cell, store, cache)
            summary = result.summary()
            provenance = (
                result.provenance.to_dict() if result.provenance else None
            )
            key = result.store_key
            status = "hit" if result.from_store else "ran"
    except Exception as exc:  # fail-soft: the suite must outlive a cell
        message = " ".join(str(exc).split()) or type(exc).__name__
        return CellOutcome(
            cell_id=cell.cell_id,
            family=cell.family,
            status="error",
            error=f"{type(exc).__name__}: {message}",
            wall_time_s=round(time.perf_counter() - start, 6),
            store=store.stats.to_dict() if store else None,
        ).to_dict()
    stats = store.stats if store is not None else None
    return CellOutcome(
        cell_id=cell.cell_id,
        family=cell.family,
        status=status,
        store_key=key,
        verified=(
            status == "hit"
            and stats is not None
            and stats.verified == stats.hits > 0
        ),
        summary=summary,
        provenance=provenance,
        wall_time_s=round(time.perf_counter() - start, 6),
        store=stats.to_dict() if stats is not None else None,
    ).to_dict()


# -- the runner ---------------------------------------------------------------


class SuiteRunner:
    """Run every cell of a :class:`SuiteSpec` under one artifact policy.

    ``store`` (a :class:`ResultStore` or its root path) makes the suite
    **resumable**: completed cells are served from disk on re-runs and
    after interruptions.  ``cache=False`` re-runs every cell but still
    refreshes the store.  ``workers=N`` bounds the process pool
    (``None``/1 = in-process serial, the default).  ``progress`` is
    called with one event dict per cell transition; a callback that
    raises is counted in :attr:`progress_errors` and never aborts the
    suite (observers are fail-soft, like cells).  ``should_stop`` is a
    zero-argument callable polled between cells — when it turns true
    the runner stops scheduling and returns the outcomes so far (the
    service layer's cooperative job cancellation).
    """

    def __init__(
        self,
        store: Optional[Union[ResultStore, str]] = None,
        cache: bool = True,
        workers: Optional[int] = None,
        progress: Optional[ProgressFn] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        store = ResultStore.coerce(store)
        self.store_root = store.root if store is not None else None
        self.cache = cache
        self.workers = workers
        self.progress = progress
        self.should_stop = should_stop
        #: progress callbacks that raised (counted, never propagated)
        self.progress_errors = 0

    def _emit(self, event: dict) -> None:
        if self.progress is None:
            return
        try:
            self.progress(event)
        except Exception:
            # fail-soft: a broken observer must not abort the suite
            self.progress_errors += 1

    def _stopping(self) -> bool:
        return self.should_stop is not None and bool(self.should_stop())

    def run(
        self,
        suite: SuiteSpec,
        only: Optional[str] = None,
        engine: Optional[str] = None,
        lint: bool = False,
    ) -> SuiteReport:
        """Execute the suite and aggregate a :class:`SuiteReport`.

        ``only`` filters cells to one family; ``engine`` overrides
        every cell's engine policy (the CLI's ``--engine``,
        ``vector|serial``) — cell ids stay stable because
        the override is applied after expansion, not in the policy
        label.
        ``lint=True`` statically analyzes the suite first and raises
        :class:`~repro.analysis.AnalysisError` on any error finding
        (a cell that can never run, a target that does not build)
        before any campaign starts.
        Outcomes keep the suite's cell order regardless of pool
        completion order.
        """
        if lint:
            from repro.analysis import AnalysisError, analyze

            lint_report = analyze(suite)
            if not lint_report.ok:
                raise AnalysisError(lint_report)
        cells = suite.cells()
        if only is not None:
            cells = [cell for cell in cells if cell.family == only]
            if not cells:
                raise ValueError(
                    f"suite {suite.name!r} has no {only!r} cells "
                    f"(families: {suite.families()})"
                )
        if engine is not None:
            cells = [
                CampaignCell.from_dict(
                    {
                        **cell.to_dict(),
                        "policy": {**cell.policy, "engine": engine},
                    }
                )
                for cell in cells
            ]
        start = time.perf_counter()
        if self.workers is None or self.workers <= 1:
            outcomes = self._run_serial(cells)
        else:
            outcomes = self._run_pooled(cells)
        return SuiteReport(
            suite=suite.name,
            cells=outcomes,
            store_root=self.store_root,
            wall_time_s=round(time.perf_counter() - start, 6),
        )

    def _run_serial(self, cells: Sequence[CampaignCell]) -> List[CellOutcome]:
        outcomes: List[CellOutcome] = []
        total = len(cells)
        for index, cell in enumerate(cells):
            if self._stopping():
                break
            self._emit(
                {
                    "event": "start",
                    "cell": cell.cell_id,
                    "index": index,
                    "total": total,
                }
            )
            outcome = CellOutcome.from_dict(
                execute_cell(cell.to_dict(), self.store_root, self.cache)
            )
            outcomes.append(outcome)
            self._emit(
                {
                    "event": "done",
                    "cell": cell.cell_id,
                    "index": index,
                    "total": total,
                    "status": outcome.status,
                    "wall_time_s": outcome.wall_time_s,
                }
            )
        return outcomes

    def _run_pooled(self, cells: Sequence[CampaignCell]) -> List[CellOutcome]:
        total = len(cells)
        if self._stopping():
            return []
        outcomes: List[Optional[CellOutcome]] = [None] * total
        pool_size = min(self.workers, total) or 1
        with futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            pending = {
                pool.submit(
                    execute_cell,
                    cell.to_dict(),
                    self.store_root,
                    self.cache,
                ): index
                for index, cell in enumerate(cells)
            }
            for future in futures.as_completed(pending):
                index = pending[future]
                cell = cells[index]
                try:
                    outcome = CellOutcome.from_dict(future.result())
                except Exception as exc:  # a worker died: fail-soft too
                    message = " ".join(str(exc).split()) or "worker died"
                    outcome = CellOutcome(
                        cell_id=cell.cell_id,
                        family=cell.family,
                        status="error",
                        error=f"{type(exc).__name__}: {message}",
                    )
                outcomes[index] = outcome
                self._emit(
                    {
                        "event": "done",
                        "cell": cell.cell_id,
                        "index": index,
                        "total": total,
                        "status": outcome.status,
                        "wall_time_s": outcome.wall_time_s,
                    }
                )
                if self._stopping():
                    for queued in pending:
                        queued.cancel()
                    break
        return [outcome for outcome in outcomes if outcome is not None]
