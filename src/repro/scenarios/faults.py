"""`FaultScenario` — one vocabulary spanning every fault model.

Pre-1.3 the fault models lived in three unconnected worlds: structural
stuck-ats (:mod:`repro.circuits.faults`) fed the decoder campaigns,
behavioural :class:`~repro.memory.faults.MemoryFault`\\ s fed the scheme
campaigns and march runs, and transient upsets had their own bespoke
driver.  A :class:`FaultScenario` wraps any of them (including
multi-fault combinations) so the one
:class:`~repro.scenarios.engine.CampaignEngine` can route each to the
right backend — and so heterogeneous fault lists can travel through one
campaign call.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

from repro.circuits.faults import FaultBase
from repro.faultsim.transient import TransientUpset
from repro.memory.faults import MemoryFault

__all__ = [
    "FaultScenario",
    "StructuralScenario",
    "MemoryScenario",
    "TransientScenario",
    "as_scenarios",
]

#: anything :func:`as_scenarios` can normalise
ScenarioLike = Union["FaultScenario", FaultBase, MemoryFault, TransientUpset]


class FaultScenario(abc.ABC):
    """One injectable fault situation, engine-agnostic."""

    #: coarse routing family: 'structural' | 'memory' | 'transient'
    kind: str = "scenario"

    @abc.abstractmethod
    def describe(self) -> str:
        """Human identity for reports and logs."""


@dataclass(frozen=True)
class StructuralScenario(FaultScenario):
    """A gate-level stuck-at (net or pin) on one decoder axis.

    ``axis`` routes the fault in scheme campaigns: ``"row"`` or
    ``"column"``.  Decoder-only campaigns ignore it.
    """

    fault: FaultBase
    axis: str = "row"

    kind = "structural"

    def __post_init__(self):
        if self.axis not in ("row", "column"):
            raise ValueError(
                f"axis must be 'row' or 'column', got {self.axis!r}"
            )

    def describe(self) -> str:
        return f"{self.axis}:{self.fault!r}"


@dataclass(frozen=True)
class MemoryScenario(FaultScenario):
    """One or more behavioural memory faults active together.

    A single fault is the common case; several faults make a multi-fault
    combination (applied in order, as
    :class:`repro.memory.faults.CompositeFault` does).
    """

    faults: Tuple[MemoryFault, ...]

    kind = "memory"

    def __post_init__(self):
        if isinstance(self.faults, MemoryFault):
            object.__setattr__(self, "faults", (self.faults,))
        else:
            object.__setattr__(self, "faults", tuple(self.faults))
        if not self.faults:
            raise ValueError("a memory scenario needs at least one fault")

    @property
    def fault(self) -> MemoryFault:
        """The single underlying fault, or a composite over several."""
        if len(self.faults) == 1:
            return self.faults[0]
        from repro.memory.faults import CompositeFault

        return CompositeFault(self.faults)

    def describe(self) -> str:
        return "+".join(repr(f) for f in self.faults)


@dataclass(frozen=True)
class TransientScenario(FaultScenario):
    """One or more single-event upsets, each striking at its own cycle.

    Multi-upset scenarios are where the vector engine's per-victim
    event walk earns its keep: it tracks the live flips of each word
    between upsets and writes, so e.g. two flips in one word restoring
    parity cost exactly an error without a detection (``first_error``
    set, ``first_detection`` ``None``).
    """

    upsets: Tuple[TransientUpset, ...]

    kind = "transient"

    def __post_init__(self):
        if isinstance(self.upsets, TransientUpset):
            object.__setattr__(self, "upsets", (self.upsets,))
        else:
            object.__setattr__(self, "upsets", tuple(self.upsets))
        if not self.upsets:
            raise ValueError("a transient scenario needs at least one upset")

    @classmethod
    def single(
        cls, address: int, bit: int, cycle: int
    ) -> "TransientScenario":
        return cls(upsets=(TransientUpset(address, bit, cycle),))

    @property
    def cycle(self) -> int:
        """Earliest strike cycle (the scenario's onset)."""
        return min(upset.cycle for upset in self.upsets)

    @property
    def addresses(self) -> Tuple[int, ...]:
        return tuple(sorted({upset.address for upset in self.upsets}))

    def describe(self) -> str:
        return "+".join(
            f"SEU(a{u.address}.b{u.bit}@c{u.cycle})" for u in self.upsets
        )


def as_scenarios(
    items: Iterable[ScenarioLike], axis: str = "row"
) -> List[FaultScenario]:
    """Normalise a heterogeneous fault list into scenarios.

    Bare :class:`FaultBase` faults become row-axis structural scenarios
    (``axis=`` overrides), bare memory faults and upsets get their
    natural wrapper, and existing scenarios pass through untouched.
    """
    scenarios: List[FaultScenario] = []
    for item in items:
        if isinstance(item, FaultScenario):
            scenarios.append(item)
        elif isinstance(item, FaultBase):
            scenarios.append(StructuralScenario(fault=item, axis=axis))
        elif isinstance(item, MemoryFault):
            scenarios.append(MemoryScenario(faults=(item,)))
        elif isinstance(item, TransientUpset):
            scenarios.append(TransientScenario(upsets=(item,)))
        else:
            raise TypeError(
                f"cannot interpret {item!r} as a fault scenario"
            )
    return scenarios
