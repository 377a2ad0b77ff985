"""`Workload` — the one stimulus vocabulary every campaign speaks.

Random, sequential, bursty, scrubbed and march traffic are all
:class:`Workload` values, not bare ``List[int]`` address streams:

* **seeded** — every stochastic generator takes an explicit ``seed`` and
  re-derives its RNG on each iteration, so the same workload value
  always replays the same trace, in any process (workloads are plain
  picklable dataclasses, safe to ship to ``workers=N`` pools);
* **composable** — workloads concatenate (``a + b``) and interleave
  (:meth:`Workload.interleave`), so "march sweep then uniform traffic"
  or "scrub every 4th cycle" are first-class values;
* **lazy** — :meth:`accesses` and :meth:`addresses` are iterators, so
  ``itertools.islice`` takes any prefix of a million-cycle trace
  without building it; campaigns materialise the trace once
  (:meth:`address_list`), and the vector campaign engine's ``chunk=W``
  lane width bounds its memory, with results proven invariant in W;
* **read/write aware** — accesses carry an operation and a background
  bit, so RAM-level campaigns (march, transient) and decoder-level
  campaigns (address-only) draw from the same object.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.memory.march import MARCH_TESTS, MarchElement, MarchTest

__all__ = [
    "Access",
    "Workload",
    "UniformWorkload",
    "SequentialWorkload",
    "BurstyWorkload",
    "ScrubbedWorkload",
    "MarchWorkload",
    "MixedWorkload",
    "ExplicitWorkload",
    "ConcatWorkload",
    "InterleavedWorkload",
    "NAMED_WORKLOADS",
    "named_workload",
    "workload_kinds",
    "as_workload",
]


@dataclass(frozen=True)
class Access:
    """One memory cycle: a read or a write of one address.

    ``bit`` is the data *background* (all-``bit`` word): the value a
    write stores, and — for march-derived reads — the value the read
    expects.  ``None`` on plain reads with no expectation.
    """

    op: str
    address: int
    bit: Optional[int] = None

    def __post_init__(self):
        if self.op not in ("r", "w"):
            raise ValueError(f"op must be 'r' or 'w', got {self.op!r}")
        if self.op == "w" and self.bit not in (0, 1):
            raise ValueError(f"writes need a 0/1 background, got {self.bit!r}")

    @property
    def is_read(self) -> bool:
        return self.op == "r"

    @property
    def is_write(self) -> bool:
        return self.op == "w"


class Workload:
    """Base of the stimulus hierarchy; see the module docstring.

    Subclasses provide ``kind`` (the serialisation tag), a ``cycles``
    length, and :meth:`accesses`, the canonical lazy iterator.
    """

    kind: ClassVar[str] = "workload"

    # -- iteration -----------------------------------------------------------

    def accesses(self) -> Iterator[Access]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Access]:
        return self.accesses()

    # NOTE: no base ``cycles`` property — a data descriptor here would
    # shadow the ``cycles`` *field* of the leaf dataclasses.  Leaves
    # either declare the field or define their own derived property.

    def __len__(self) -> int:
        return self.cycles

    def addresses(self) -> Iterator[int]:
        """The address-per-cycle view (every op is one memory cycle)."""
        return (access.address for access in self.accesses())

    def address_list(self) -> List[int]:
        return list(self.addresses())

    @property
    def has_writes(self) -> bool:
        """Whether any access is a write (leafs override cheaply)."""
        return any(access.is_write for access in self.accesses())

    # -- composition ---------------------------------------------------------

    def __add__(self, other: "Workload") -> "ConcatWorkload":
        if not isinstance(other, Workload):
            return NotImplemented
        parts: List[Workload] = []
        for workload in (self, other):
            if isinstance(workload, ConcatWorkload):
                parts.extend(workload.parts)
            else:
                parts.append(workload)
        return ConcatWorkload(tuple(parts))

    def interleave(self, *others: "Workload") -> "InterleavedWorkload":
        """Round-robin this workload with others, one access at a time
        (exhausted parts drop out) — e.g. scrub traffic woven into
        uniform traffic."""
        return InterleavedWorkload((self,) + tuple(others))

    # -- serialisation -------------------------------------------------------

    def _params(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped by :meth:`from_dict` (this is
        what a ``DesignSpec.workload`` serialises as)."""
        data = {"kind": self.kind}
        data.update(self._params())
        return data

    @staticmethod
    def from_dict(data: dict) -> "Workload":
        kind = data.get("kind")
        cls = _WORKLOAD_KINDS.get(kind)
        if cls is None:
            raise ValueError(
                f"unknown workload kind {kind!r}; "
                f"known: {sorted(_WORKLOAD_KINDS)}"
            )
        params = {k: v for k, v in data.items() if k != "kind"}
        return cls._from_params(params)

    @classmethod
    def _from_params(cls, params: dict) -> "Workload":
        return cls(**params)

    def label(self) -> str:
        """Compact human identity, e.g. ``uniform(64w, 256cyc, seed=7)``."""
        inner = ", ".join(f"{k}={v}" for k, v in self._params().items())
        return f"{self.kind}({inner})"

    # -- constructors (the vocabulary) ---------------------------------------

    @staticmethod
    def uniform(space: int, cycles: int, seed: int = 0) -> "UniformWorkload":
        return UniformWorkload(space=space, cycles=cycles, seed=seed)

    @staticmethod
    def sequential(
        space: int, cycles: int, start: int = 0
    ) -> "SequentialWorkload":
        return SequentialWorkload(space=space, cycles=cycles, start=start)

    @staticmethod
    def bursty(
        space: int, cycles: int, locality: int = 8, seed: int = 0
    ) -> "BurstyWorkload":
        return BurstyWorkload(
            space=space, cycles=cycles, locality=locality, seed=seed
        )

    @staticmethod
    def scrubbed(
        words: int, cycles: int, scrub_period: int, seed: int = 0
    ) -> "ScrubbedWorkload":
        return ScrubbedWorkload(
            words=words, cycles=cycles, scrub_period=scrub_period, seed=seed
        )

    @staticmethod
    def march(
        test: MarchTest, words: int, reads_only: bool = False
    ) -> "MarchWorkload":
        return MarchWorkload(test=test, words=words, reads_only=reads_only)

    @staticmethod
    def mixed(
        space: int,
        cycles: int,
        seed: int = 0,
        write_ratio: float = 0.5,
    ) -> "MixedWorkload":
        return MixedWorkload(
            space=space, cycles=cycles, seed=seed, write_ratio=write_ratio
        )

    @staticmethod
    def explicit(addresses: Iterable[int]) -> "ExplicitWorkload":
        return ExplicitWorkload(addresses_=tuple(addresses))


def _check_space(space: int) -> None:
    if space < 1:
        raise ValueError(f"address space must be >= 1, got {space}")


def _check_cycles(cycles: int) -> None:
    if cycles < 0:
        raise ValueError(f"cycle count must be >= 0, got {cycles}")


@dataclass(frozen=True)
class UniformWorkload(Workload):
    """Uniform i.i.d. reads — the paper's latency-model regime."""

    kind: ClassVar[str] = "uniform"

    space: int
    cycles: int
    seed: int = 0

    def __post_init__(self):
        _check_space(self.space)
        _check_cycles(self.cycles)

    def addresses(self) -> Iterator[int]:
        """Columnar: the seeded draws themselves, no per-cycle
        :class:`Access` (what :meth:`address_list` builds on).

        ``random.Random.randrange(n)`` draws ``getrandbits(k)``, with
        ``k = n.bit_length()``, until a draw is below ``n``.  The same
        rejection runs here in C iterators, without a Python frame per
        draw, so the trace is the ``randrange`` sequence itself.
        """
        space = operator.index(self.space)
        rng = random.Random(self.seed)
        draws = map(rng.getrandbits, itertools.repeat(space.bit_length()))
        return itertools.islice(filter(space.__gt__, draws), self.cycles)

    def accesses(self) -> Iterator[Access]:
        return (Access("r", address) for address in self.addresses())

    @property
    def has_writes(self) -> bool:
        return False

    def _params(self) -> dict:
        return {"space": self.space, "cycles": self.cycles, "seed": self.seed}


@dataclass(frozen=True)
class SequentialWorkload(Workload):
    """Linear wrapping sweep — a marching access pattern."""

    kind: ClassVar[str] = "sequential"

    space: int
    cycles: int
    start: int = 0

    def __post_init__(self):
        _check_space(self.space)
        _check_cycles(self.cycles)

    def accesses(self) -> Iterator[Access]:
        for i in range(self.cycles):
            yield Access("r", (self.start + i) % self.space)

    @property
    def has_writes(self) -> bool:
        return False

    def _params(self) -> dict:
        return {"space": self.space, "cycles": self.cycles, "start": self.start}


@dataclass(frozen=True)
class BurstyWorkload(Workload):
    """Short sequential runs at random bases (cache-like locality)."""

    kind: ClassVar[str] = "bursty"

    space: int
    cycles: int
    locality: int = 8
    seed: int = 0

    def __post_init__(self):
        _check_space(self.space)
        _check_cycles(self.cycles)
        if self.locality < 1:
            raise ValueError(f"locality must be >= 1, got {self.locality}")

    def accesses(self) -> Iterator[Access]:
        rng = random.Random(self.seed)
        emitted = 0
        while emitted < self.cycles:
            base = rng.randrange(self.space)
            run = rng.randint(1, self.locality)
            for offset in range(run):
                yield Access("r", (base + offset) % self.space)
                emitted += 1
                if emitted == self.cycles:
                    return

    @property
    def has_writes(self) -> bool:
        return False

    def _params(self) -> dict:
        return {
            "space": self.space,
            "cycles": self.cycles,
            "locality": self.locality,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ScrubbedWorkload(Workload):
    """Uniform traffic with a round-robin scrubber every ``scrub_period``
    cycles — the workload that bounds transient time-to-next-read."""

    kind: ClassVar[str] = "scrubbed"

    words: int
    cycles: int
    scrub_period: int
    seed: int = 0

    def __post_init__(self):
        _check_space(self.words)
        _check_cycles(self.cycles)
        if self.scrub_period < 0:
            raise ValueError(
                f"scrub period must be >= 0, got {self.scrub_period}"
            )

    def accesses(self) -> Iterator[Access]:
        rng = random.Random(self.seed)
        scrub_ptr = 0
        for cycle in range(self.cycles):
            if self.scrub_period > 0 and cycle % self.scrub_period == 0:
                yield Access("r", scrub_ptr % self.words)
                scrub_ptr += 1
            else:
                yield Access("r", rng.randrange(self.words))

    @property
    def has_writes(self) -> bool:
        return False

    def _params(self) -> dict:
        return {
            "words": self.words,
            "cycles": self.cycles,
            "scrub_period": self.scrub_period,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MarchWorkload(Workload):
    """A march test flattened into its per-cycle read/write trace.

    One lane per operation, element by element, each element visiting
    its addresses in order with all its operations — the compiled form
    both the RAM-level march campaigns and the decoder campaigns
    consume (``reads_only`` keeps just the read cycles).
    """

    kind: ClassVar[str] = "march"

    test: MarchTest
    words: int
    reads_only: bool = False

    def __post_init__(self):
        _check_space(self.words)

    def _element_ops(self, element: MarchElement) -> List[str]:
        return [
            op
            for op in element.operations
            if not self.reads_only or op.startswith("r")
        ]

    def accesses(self) -> Iterator[Access]:
        for element in self.test.elements:
            ops = self._element_ops(element)
            if not ops:
                continue
            for address in element.addresses(self.words):
                for op in ops:
                    yield Access(op[0], address, int(op[1]))

    @property
    def cycles(self) -> int:
        per_address = sum(
            len(self._element_ops(e)) for e in self.test.elements
        )
        return per_address * self.words

    @property
    def has_writes(self) -> bool:
        return not self.reads_only and any(
            op.startswith("w")
            for element in self.test.elements
            for op in element.operations
        )

    def _params(self) -> dict:
        return {
            "test": {
                "name": self.test.name,
                "elements": [
                    {"order": e.order, "operations": list(e.operations)}
                    for e in self.test.elements
                ],
            },
            "words": self.words,
            "reads_only": self.reads_only,
        }

    @classmethod
    def _from_params(cls, params: dict) -> "MarchWorkload":
        test = params["test"]
        if isinstance(test, str):
            resolved = MARCH_TESTS.get(test)
            if resolved is None:
                raise ValueError(
                    f"unknown march test {test!r}; "
                    f"known: {sorted(MARCH_TESTS)}"
                )
            test = resolved
        elif isinstance(test, dict):
            test = MarchTest(
                test["name"],
                tuple(
                    MarchElement(e["order"], tuple(e["operations"]))
                    for e in test["elements"]
                ),
            )
        return cls(
            test=test,
            words=params["words"],
            reads_only=params.get("reads_only", False),
        )

    def label(self) -> str:
        suffix = ", reads_only" if self.reads_only else ""
        return f"march({self.test.name}, words={self.words}{suffix})"


@dataclass(frozen=True)
class MixedWorkload(Workload):
    """Random mixed read/write traffic (writes store random backgrounds)."""

    kind: ClassVar[str] = "mixed"

    space: int
    cycles: int
    seed: int = 0
    write_ratio: float = 0.5

    def __post_init__(self):
        _check_space(self.space)
        _check_cycles(self.cycles)
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError(
                f"write_ratio must be in [0, 1], got {self.write_ratio}"
            )

    def accesses(self) -> Iterator[Access]:
        rng = random.Random(self.seed)
        for _ in range(self.cycles):
            address = rng.randrange(self.space)
            if rng.random() < self.write_ratio:
                yield Access("w", address, rng.randrange(2))
            else:
                yield Access("r", address)

    @property
    def has_writes(self) -> bool:
        return self.write_ratio > 0.0 and self.cycles > 0

    def _params(self) -> dict:
        return {
            "space": self.space,
            "cycles": self.cycles,
            "seed": self.seed,
            "write_ratio": self.write_ratio,
        }


@dataclass(frozen=True)
class ExplicitWorkload(Workload):
    """An explicit address trace (reads) — the adapter every legacy
    ``List[int]`` stream passes through."""

    kind: ClassVar[str] = "explicit"

    addresses_: Tuple[int, ...]

    def accesses(self) -> Iterator[Access]:
        for address in self.addresses_:
            yield Access("r", address)

    @property
    def cycles(self) -> int:
        return len(self.addresses_)

    @property
    def has_writes(self) -> bool:
        return False

    def address_list(self) -> List[int]:
        return list(self.addresses_)

    def _params(self) -> dict:
        return {"addresses_": list(self.addresses_)}

    @classmethod
    def _from_params(cls, params: dict) -> "ExplicitWorkload":
        return cls(addresses_=tuple(params["addresses_"]))

    def label(self) -> str:
        return f"explicit({len(self.addresses_)} addresses)"


@dataclass(frozen=True)
class ConcatWorkload(Workload):
    """Workloads back to back (built by ``a + b``)."""

    kind: ClassVar[str] = "concat"

    parts: Tuple[Workload, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("concatenation needs at least one workload")

    def accesses(self) -> Iterator[Access]:
        for part in self.parts:
            yield from part.accesses()

    @property
    def cycles(self) -> int:
        return sum(part.cycles for part in self.parts)

    @property
    def has_writes(self) -> bool:
        return any(part.has_writes for part in self.parts)

    def _params(self) -> dict:
        return {"parts": [part.to_dict() for part in self.parts]}

    @classmethod
    def _from_params(cls, params: dict) -> "ConcatWorkload":
        return cls(
            parts=tuple(Workload.from_dict(p) for p in params["parts"])
        )

    def label(self) -> str:
        return " + ".join(part.label() for part in self.parts)


@dataclass(frozen=True)
class InterleavedWorkload(Workload):
    """Round-robin interleave, one access per part per turn; parts that
    run out drop from the rotation."""

    kind: ClassVar[str] = "interleave"

    parts: Tuple[Workload, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("interleaving needs at least one workload")

    def accesses(self) -> Iterator[Access]:
        iterators = [part.accesses() for part in self.parts]
        while iterators:
            alive = []
            for iterator in iterators:
                try:
                    yield next(iterator)
                except StopIteration:
                    continue
                alive.append(iterator)
            iterators = alive

    @property
    def cycles(self) -> int:
        return sum(part.cycles for part in self.parts)

    @property
    def has_writes(self) -> bool:
        return any(part.has_writes for part in self.parts)

    def _params(self) -> dict:
        return {"parts": [part.to_dict() for part in self.parts]}

    @classmethod
    def _from_params(cls, params: dict) -> "InterleavedWorkload":
        return cls(
            parts=tuple(Workload.from_dict(p) for p in params["parts"])
        )

    def label(self) -> str:
        return " | ".join(part.label() for part in self.parts)


_WORKLOAD_KINDS: Dict[str, Type[Workload]] = {
    cls.kind: cls
    for cls in (
        UniformWorkload,
        SequentialWorkload,
        BurstyWorkload,
        ScrubbedWorkload,
        MarchWorkload,
        MixedWorkload,
        ExplicitWorkload,
        ConcatWorkload,
        InterleavedWorkload,
    )
}

def workload_kinds() -> Tuple[str, ...]:
    """The ``kind`` tags a serialised :class:`Workload` dict may carry
    (what :meth:`Workload.from_dict` dispatches on)."""
    return tuple(_WORKLOAD_KINDS)


#: family names a ``DesignSpec.workload``/CLI ``--workload`` may use; the
#: engine resolves them against the organisation via :func:`named_workload`
NAMED_WORKLOADS = ("uniform", "sequential", "bursty", "scrubbed", "march")


def named_workload(
    name: str, space: int, cycles: int, seed: int = 0
) -> Workload:
    """Resolve a workload *family name* for a given address space.

    The string form a :class:`~repro.design.spec.DesignSpec` (or the
    CLI's ``--workload``) carries; full :class:`Workload` values pin
    every parameter instead.

    ``"march"`` is one full March C- sweep, whose length is fixed by
    the algorithm (10 ops x ``space``) — the requested ``cycles`` is
    ignored for that family (the consumer's report carries the real
    stream length).
    """
    if name == "uniform":
        return Workload.uniform(space, cycles, seed=seed)
    if name == "sequential":
        return Workload.sequential(space, cycles)
    if name == "bursty":
        return Workload.bursty(space, cycles, seed=seed)
    if name == "scrubbed":
        return Workload.scrubbed(space, cycles, scrub_period=4, seed=seed)
    if name == "march":
        return Workload.march(MARCH_TESTS["March C-"], space)
    raise ValueError(
        f"unknown workload family {name!r}; known: {NAMED_WORKLOADS}"
    )


def as_workload(
    stream: Union[Workload, Sequence[int]]
) -> Workload:
    """Normalise a campaign stimulus: pass workloads through, wrap bare
    address sequences (the pre-1.3 convention) in an
    :class:`ExplicitWorkload`."""
    if isinstance(stream, Workload):
        return stream
    return ExplicitWorkload(addresses_=tuple(stream))
