"""`SuiteSpec` — a declarative, JSON-round-trippable campaign matrix.

A suite is a list of :class:`MatrixBlock`\\ s; each block crosses its
axes — **targets** (``DesignSpec`` dicts or RAM organisations) x
**workloads** (family names resolved against the target, pinned
``Workload`` dicts, or march-test references) x one **scenario
population** (a registered builder, see
:mod:`repro.suite.populations`) x **engine policies** — into concrete
:class:`CampaignCell`\\ s.  Every cell is plain JSON: picklable for the
runner's process pool, hashable into the :class:`~repro.results.store.
ResultStore` key that makes suite re-runs resume from disk.

>>> block = MatrixBlock(
...     family="transient",
...     targets=({"words": 32, "bits": 8, "column_mux": 4},),
...     workloads=({"family": "uniform", "cycles": 64, "seed": 1},),
...     scenarios={"population": "upset-stride", "stride": 16},
... )
>>> suite = SuiteSpec(name="tiny", blocks=(block,))
>>> SuiteSpec.from_json(suite.to_json()) == suite
True
>>> [cell.family for cell in suite.cells()]
['transient']
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.families import FAMILIES

__all__ = ["FAMILIES", "CampaignCell", "MatrixBlock", "SuiteSpec"]

#: families whose target is a ``DesignSpec`` dict (the rest take a RAM
#: organisation dict: words/bits/column_mux)
SPEC_TARGET_FAMILIES = ("design", "decoder", "scheme")

#: recognised policy knobs per cell (everything else is rejected so a
#: typo'd ``"colapse"`` fails at spec load, not silently at run time)
POLICY_KEYS = ("engine", "collapse", "workers", "chunk", "empirical",
               "empirical_cycles")


def _frozen_dict(value: Optional[dict], what: str) -> Optional[dict]:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return dict(value)


def _validate_workload(workload: Optional[dict], where: str) -> None:
    """Reject workload dicts that could never run — unknown march test,
    workload kind or family names — at spec load, with a one-line
    diagnostic instead of a run-time traceback."""
    if workload is None:
        return
    if "test" in workload:
        from repro.memory.march import MARCH_TESTS

        if workload["test"] not in MARCH_TESTS:
            raise ValueError(
                f"block {where}: unknown march test "
                f"{workload['test']!r}; known: {sorted(MARCH_TESTS)}"
            )
        return
    if "kind" in workload:
        from repro.scenarios.workload import workload_kinds

        if workload["kind"] not in workload_kinds():
            raise ValueError(
                f"block {where}: unknown workload kind "
                f"{workload['kind']!r}; known: {workload_kinds()}"
            )
        return
    if "family" in workload:
        from repro.scenarios.workload import NAMED_WORKLOADS

        if workload["family"] not in NAMED_WORKLOADS:
            raise ValueError(
                f"block {where}: unknown workload family "
                f"{workload['family']!r}; known: {NAMED_WORKLOADS}"
            )
        return
    raise ValueError(
        f"block {where}: a workload dict needs a 'family', 'kind' or "
        f"'test' key, got {sorted(workload)}"
    )


@dataclass(frozen=True)
class CampaignCell:
    """One concrete campaign: the unit the runner schedules and the
    store keys.

    All fields are plain JSON values — a cell round-trips through
    ``to_dict``/``from_dict`` and pickles into the runner's process
    pool unchanged.
    """

    cell_id: str
    family: str
    #: DesignSpec dict (design/decoder/scheme) or RAM organisation dict
    target: dict
    #: ``{"family": name, "cycles": N, "seed": S}``, a full
    #: ``Workload.to_dict()`` (has a ``"kind"`` key), or
    #: ``{"test": march-test-name}``; ``None`` for design cells
    workload: Optional[dict] = None
    #: ``{"population": registered-name, **params}``; ``None`` for
    #: design cells
    scenarios: Optional[dict] = None
    #: engine policy overrides (see :data:`POLICY_KEYS`)
    policy: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown campaign family {self.family!r}; "
                f"known: {FAMILIES}"
            )
        unknown = set(self.policy) - set(POLICY_KEYS)
        if unknown:
            raise ValueError(
                f"cell {self.cell_id!r}: unknown policy keys "
                f"{sorted(unknown)}; known: {POLICY_KEYS}"
            )
        if self.family != "design" and self.scenarios is not None:
            if "population" not in self.scenarios:
                raise ValueError(
                    f"cell {self.cell_id!r}: scenarios need a "
                    f"'population' name"
                )

    def to_dict(self) -> dict:
        return {
            "cell": self.cell_id,
            "family": self.family,
            "target": dict(self.target),
            "workload": self.workload,
            "scenarios": self.scenarios,
            "policy": dict(self.policy),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignCell":
        return cls(
            cell_id=data["cell"],
            family=data["family"],
            target=dict(data["target"]),
            workload=_frozen_dict(data.get("workload"), "workload"),
            scenarios=_frozen_dict(data.get("scenarios"), "scenarios"),
            policy=dict(data.get("policy") or {}),
        )


def _target_label(family: str, target: dict) -> str:
    if family in SPEC_TARGET_FAMILIES:
        words = target.get("words", "?")
        bits = target.get("bits", "?")
        parts = [f"{bits}x{words}"]
        if "c" in target:
            parts.append(f"c{target['c']}")
        if "pndc" in target:
            parts.append(f"p{target['pndc']:g}")
        return "-".join(parts)
    return f"{target.get('words', '?')}x{target.get('bits', '?')}"


def _workload_label(workload: Optional[dict]) -> str:
    if workload is None:
        return ""
    if "test" in workload:
        return str(workload["test"]).replace(" ", "").lower()
    if "family" in workload:
        return str(workload["family"])
    if "kind" in workload:
        label = str(workload["kind"])
        period = workload.get("scrub_period")
        return f"{label}{period}" if period is not None else label
    return "workload"


def _policy_label(policy: dict) -> str:
    parts = []
    engine = policy.get("engine")
    if engine and engine != "vector":
        parts.append(str(engine))
    if policy.get("collapse") is False:
        parts.append("nocollapse")
    if policy.get("empirical"):
        parts.append("empirical")
    return "+".join(parts)


@dataclass(frozen=True)
class MatrixBlock:
    """One axis-product of a suite: family x targets x workloads x
    policies, sharing one scenario population."""

    family: str
    targets: Tuple[dict, ...]
    workloads: Tuple[Optional[dict], ...] = (None,)
    scenarios: Optional[dict] = None
    policies: Tuple[dict, ...] = ({},)
    label: str = ""

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown campaign family {self.family!r}; "
                f"known: {FAMILIES}"
            )
        object.__setattr__(
            self, "targets", tuple(dict(t) for t in self.targets)
        )
        object.__setattr__(
            self,
            "workloads",
            tuple(
                dict(w) if w is not None else None for w in self.workloads
            ),
        )
        object.__setattr__(
            self, "policies", tuple(dict(p) for p in self.policies)
        )
        if not self.targets:
            raise ValueError(f"block {self.label!r} has no targets")
        if self.family != "design" and self.scenarios is None:
            raise ValueError(
                f"block {self.label!r} ({self.family}): campaign blocks "
                f"need a scenario population"
            )
        if self.family != "design":
            from repro.suite.populations import check_population

            check_population(self.scenarios["population"])
        where = self.label or self.family
        for workload in self.workloads:
            _validate_workload(workload, where)

    def cells(self) -> List[CampaignCell]:
        """The block expanded to concrete cells (stable order: targets
        outermost, policies innermost)."""
        out: List[CampaignCell] = []
        for target in self.targets:
            for workload in self.workloads:
                for policy in self.policies:
                    parts = [self.label or self.family]
                    parts.append(_target_label(self.family, target))
                    for extra in (
                        _workload_label(workload), _policy_label(policy)
                    ):
                        if extra:
                            parts.append(extra)
                    out.append(
                        CampaignCell(
                            cell_id="/".join(parts),
                            family=self.family,
                            target=target,
                            workload=workload,
                            scenarios=self.scenarios,
                            policy=policy,
                        )
                    )
        return out

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "label": self.label,
            "targets": [dict(t) for t in self.targets],
            "workloads": [
                dict(w) if w is not None else None for w in self.workloads
            ],
            "scenarios": self.scenarios,
            "policies": [dict(p) for p in self.policies],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixBlock":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown MatrixBlock fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(
            family=data["family"],
            targets=tuple(data["targets"]),
            workloads=tuple(data.get("workloads") or (None,)),
            scenarios=_frozen_dict(data.get("scenarios"), "scenarios"),
            policies=tuple(data.get("policies") or ({},)),
            label=data.get("label", ""),
        )


@dataclass(frozen=True)
class SuiteSpec:
    """A named, declarative campaign suite: blocks + metadata.

    ``cells()`` expands every block and guarantees unique cell ids
    (duplicate matrix coordinates get a ``#N`` suffix), so outcomes,
    progress events and store artifacts are unambiguous per cell.
    """

    name: str
    blocks: Tuple[MatrixBlock, ...]
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ValueError("a suite needs a name")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError(f"suite {self.name!r} has no blocks")

    def cells(self) -> List[CampaignCell]:
        out: List[CampaignCell] = []
        seen: Dict[str, int] = {}
        for block in self.blocks:
            for cell in block.cells():
                count = seen.get(cell.cell_id, 0)
                seen[cell.cell_id] = count + 1
                if count:
                    cell = dataclasses.replace(
                        cell, cell_id=f"{cell.cell_id}#{count + 1}"
                    )
                out.append(cell)
        return out

    def families(self) -> Tuple[str, ...]:
        return tuple(sorted({block.family for block in self.blocks}))

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": 1,
            "name": self.name,
            "description": self.description,
            "blocks": [block.to_dict() for block in self.blocks],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteSpec":
        if not isinstance(data, dict) or "blocks" not in data:
            raise ValueError(
                "not a suite spec: expected a JSON object with a "
                "'blocks' list (write one with SuiteSpec.to_json())"
            )
        return cls(
            name=data.get("name", ""),
            blocks=tuple(
                MatrixBlock.from_dict(block) for block in data["blocks"]
            ),
            description=data.get("description", ""),
        )

    @classmethod
    def from_json(cls, text: Union[str, bytes]) -> "SuiteSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed suite spec: {exc}") from None
        return cls.from_dict(data)
