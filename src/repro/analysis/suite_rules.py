"""Suite/spec rules: cells that can never run, colliding store keys,
and provenance completeness.

These rules look at a :class:`~repro.suite.spec.SuiteSpec` *before* the
runner touches it.  ``MatrixBlock`` construction already validates
population and workload names eagerly, so on freshly loaded specs the
name rules act as a second line of defence (a population unregistered
after the spec was built, a spec object mutated in place); the
duplicate-cell and provenance rules report what eager validation cannot
know — relationships *between* cells and reproducibility hygiene.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.analysis.base import Context, LintRule, rule
from repro.suite.spec import SPEC_TARGET_FAMILIES, SuiteSpec

__all__ = []


def _cell_loc(ctx: Context, cell) -> str:
    return ctx.loc(f"cell {cell.cell_id}")


@rule(
    "suite-population",
    "suite",
    severity="error",
    summary="every campaign cell names a registered scenario population",
)
def _check_populations(
    suite: SuiteSpec, ctx: Context, rule: LintRule
) -> Iterable[object]:
    from repro.suite.populations import POPULATIONS

    for cell in suite.cells():
        if cell.family == "design" or cell.scenarios is None:
            continue
        name = cell.scenarios.get("population")
        if name not in POPULATIONS:
            yield rule.finding(
                _cell_loc(ctx, cell),
                f"scenario population {name!r} is not registered — the "
                f"cell can never run; known: {POPULATIONS.names()}",
                hint="register it with POPULATIONS.register or fix the "
                "name",
            )


@rule(
    "suite-workload",
    "suite",
    severity="error",
    summary="every workload reference resolves to a known name",
)
def _check_workloads(
    suite: SuiteSpec, ctx: Context, rule: LintRule
) -> Iterable[object]:
    from repro.suite.spec import _validate_workload

    for cell in suite.cells():
        try:
            _validate_workload(cell.workload, cell.cell_id)
        except ValueError as exc:
            yield rule.finding(
                _cell_loc(ctx, cell), f"{exc} — the cell can never run"
            )


@rule(
    "suite-engine",
    "suite",
    severity="error",
    summary="every engine policy names a campaign engine",
)
def _check_engines(
    suite: SuiteSpec, ctx: Context, rule: LintRule
) -> Iterable[object]:
    from repro.faultsim import check_engine

    for cell in suite.cells():
        engine = cell.policy.get("engine")
        if engine is None:
            continue
        try:
            check_engine(engine)
        except ValueError as exc:
            yield rule.finding(
                _cell_loc(ctx, cell), f"{exc} — the cell can never run"
            )


@rule(
    "suite-target",
    "suite",
    severity="error",
    summary="every cell target builds a valid design spec / organisation",
)
def _check_targets(
    suite: SuiteSpec, ctx: Context, rule: LintRule
) -> Iterable[object]:
    from repro.design.spec import DesignSpec
    from repro.memory.organization import MemoryOrganization

    seen = set()
    for cell in suite.cells():
        material = json.dumps(
            (cell.family in SPEC_TARGET_FAMILIES, cell.target),
            sort_keys=True,
        )
        if material in seen:
            continue
        seen.add(material)
        try:
            if cell.family in SPEC_TARGET_FAMILIES:
                DesignSpec.from_dict(cell.target)
            else:
                MemoryOrganization(**cell.target)
        except (TypeError, ValueError) as exc:
            yield rule.finding(
                _cell_loc(ctx, cell),
                f"target does not build: {exc}",
            )


@rule(
    "suite-duplicate",
    "suite",
    severity="warning",
    summary="no two cells collide on one result-store key",
)
def _check_duplicates(
    suite: SuiteSpec, ctx: Context, rule: LintRule
) -> Iterable[object]:
    groups: dict = {}
    for cell in suite.cells():
        material = json.dumps(
            {
                "family": cell.family,
                "target": cell.target,
                "workload": cell.workload,
                "scenarios": cell.scenarios,
                "policy": cell.policy,
            },
            sort_keys=True,
        )
        groups.setdefault(material, []).append(cell.cell_id)
    for cell_ids in groups.values():
        if len(cell_ids) > 1:
            yield rule.finding(
                ctx.loc(f"cell {cell_ids[0]}"),
                f"{len(cell_ids)} cells share identical campaign "
                "material and collide on one store key — all but the "
                "first are redundant re-runs",
                hint="drop the duplicates or vary an axis",
                counterexample={"cells": cell_ids},
            )


@rule(
    "suite-provenance",
    "suite",
    severity="warning",
    summary="named workloads pin cycles and seed for reproducibility",
)
def _check_provenance(
    suite: SuiteSpec, ctx: Context, rule: LintRule
) -> Iterable[object]:
    for cell in suite.cells():
        workload = cell.workload
        if workload is None or "family" not in workload:
            continue  # pinned Workload dicts / march tests carry it all
        if workload.get("family") == "march":
            continue  # stream length is fixed by the algorithm
        missing = [
            key for key in ("cycles", "seed") if key not in workload
        ]
        if missing:
            yield rule.finding(
                _cell_loc(ctx, cell),
                f"workload family {workload['family']!r} leaves "
                f"{missing} to run-time defaults — the provenance stamp "
                "cannot distinguish re-runs under changed defaults",
                hint="pin cycles and seed in the workload dict",
            )
