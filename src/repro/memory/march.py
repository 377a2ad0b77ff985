"""March test algorithms — deterministic memory test workloads.

March tests are the standard off-line/periodic test workloads for RAMs
(the paper's keyword list includes "Concurrent Testing of Memories"; its
companion literature, e.g. [NIC 94] UBIST, runs March-like sequences
concurrently).  We implement the classical algorithms as first-class
objects so they can serve two roles here:

* an off-line detector for the behavioural fault models (stuck-at cells,
  data lines, coupling faults) — with the textbook coverage guarantees
  tested in the suite;
* deterministic *address streams* for the decoder fault campaigns,
  compiled by ``Workload.march`` (a sweeping address pattern exercises
  every decoder line, giving the deterministic latency bounds of
  :mod:`repro.core.deterministic`).

Notation: ⇑ ascending, ⇓ descending, ⇕ either; r0/r1 read expecting 0/1,
w0/w1 write 0/1.  Data backgrounds are all-0s/all-1s words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.memory.ram import BehavioralRAM

__all__ = [
    "MarchElement",
    "MarchTest",
    "MARCH_C_MINUS",
    "MATS_PLUS",
    "MARCH_X",
    "MARCH_Y",
    "MARCH_TESTS",
    "run_march",
    "MarchViolation",
]


@dataclass(frozen=True)
class MarchElement:
    """One march element: an address order and a list of operations.

    ``order`` is '+' (ascending), '-' (descending) or '*' (either; we use
    ascending).  Operations are strings in {'r0', 'r1', 'w0', 'w1'}.
    """

    order: str
    operations: Tuple[str, ...]

    def __post_init__(self):
        if self.order not in ("+", "-", "*"):
            raise ValueError(f"order must be +, - or *, got {self.order!r}")
        for op in self.operations:
            if op not in ("r0", "r1", "w0", "w1"):
                raise ValueError(f"unknown march operation {op!r}")

    def addresses(self, words: int) -> Iterator[int]:
        if self.order == "-":
            return iter(range(words - 1, -1, -1))
        return iter(range(words))

    def __str__(self) -> str:
        arrow = {"+": "up", "-": "down", "*": "any"}[self.order]
        return f"{arrow}({','.join(self.operations)})"


@dataclass(frozen=True)
class MarchTest:
    """A named sequence of march elements."""

    name: str
    elements: Tuple[MarchElement, ...]

    @property
    def complexity(self) -> int:
        """Operations per cell (the usual xN rating: March C- is 10N)."""
        return sum(len(e.operations) for e in self.elements)

    def __str__(self) -> str:
        body = "; ".join(str(e) for e in self.elements)
        return f"{self.name}: {{{body}}} ({self.complexity}N)"


def _element(order: str, *ops: str) -> MarchElement:
    return MarchElement(order, tuple(ops))


#: March C-: 10N; detects SAFs, TFs, CFins, CFids, AFs.
MARCH_C_MINUS = MarchTest(
    "March C-",
    (
        _element("*", "w0"),
        _element("+", "r0", "w1"),
        _element("+", "r1", "w0"),
        _element("-", "r0", "w1"),
        _element("-", "r1", "w0"),
        _element("*", "r0"),
    ),
)

#: MATS+: 5N; detects SAFs and AFs.
MATS_PLUS = MarchTest(
    "MATS+",
    (
        _element("*", "w0"),
        _element("+", "r0", "w1"),
        _element("-", "r1", "w0"),
    ),
)

#: March X: 6N; SAFs, TFs, CFins.
MARCH_X = MarchTest(
    "March X",
    (
        _element("*", "w0"),
        _element("+", "r0", "w1"),
        _element("-", "r1", "w0"),
        _element("*", "r0"),
    ),
)

#: March Y: 8N; SAFs, TFs, some linked faults.
MARCH_Y = MarchTest(
    "March Y",
    (
        _element("*", "w0"),
        _element("+", "r0", "w1", "r1"),
        _element("-", "r1", "w0", "r0"),
        _element("*", "r0"),
    ),
)


#: the classical algorithms by display name (used by workload
#: serialisation and the CLI's march campaign command)
MARCH_TESTS = {
    test.name: test
    for test in (MARCH_C_MINUS, MATS_PLUS, MARCH_X, MARCH_Y)
}


@dataclass
class MarchViolation:
    """One failed read during a march run."""

    element_index: int
    operation: str
    address: int
    expected: Tuple[int, ...]
    observed: Tuple[int, ...]


def _background(ram: BehavioralRAM, bit: int) -> Tuple[int, ...]:
    return (bit,) * ram.organization.bits


def run_march(ram: BehavioralRAM, test: MarchTest) -> List[MarchViolation]:
    """Execute a march test; returns the list of read violations.

    An empty list means the memory passed (no detectable fault for this
    algorithm's coverage class).
    """
    violations: List[MarchViolation] = []
    words = ram.organization.words
    for element_index, element in enumerate(test.elements):
        for address in element.addresses(words):
            for op in element.operations:
                kind, bit = op[0], int(op[1])
                if kind == "w":
                    ram.write(address, _background(ram, bit))
                else:
                    expected = _background(ram, bit)
                    observed = ram.read_data(address)
                    if observed != expected:
                        violations.append(
                            MarchViolation(
                                element_index=element_index,
                                operation=op,
                                address=address,
                                expected=expected,
                                observed=observed,
                            )
                        )
    return violations
