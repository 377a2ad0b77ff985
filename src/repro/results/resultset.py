"""`ResultSet` — the provenance-stamped, serialisable campaign artifact.

The 1.4 results API: every campaign producer emits (or can be viewed
as) a :class:`ResultSet`, whose records are plain JSON-able values —
the fault's printable identity, its routing kind, the first-error and
first-detection cycles — stamped with a :class:`Provenance` describing
exactly what produced them (design spec, scenario population, workload,
engine policy, repro version).

Three properties the in-memory :class:`~repro.faultsim.results.
CampaignResult` never had:

* **lossless streaming serialisation** — :meth:`ResultSet.write_jsonl` /
  :meth:`ResultSet.read_jsonl` round-trip records, provenance and
  summary bit-identically, one JSON line per record, so million-record
  campaigns stream to disk in constant memory (see
  :class:`ResultSetWriter` for the producer-side streaming handle);
* **algebra** — :meth:`merge`, :meth:`filter`, :meth:`group_by` and
  :meth:`diff` make cross-run comparisons (vector vs serial, code A vs
  code B, workload sweeps) one-liners;
* **content-addressability** — the canonical JSONL form is what
  :class:`repro.results.store.ResultStore` hashes and verifies.

``CampaignResult`` remains the compatibility view: ``to_campaign()`` /
``CampaignResult.to_result_set()`` convert both ways (fault objects
flatten to their printable identity on the way in).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.results.stats import RecordStatistics

__all__ = [
    "Provenance",
    "ResultRecord",
    "ResultSet",
    "ResultSetWriter",
    "ResultDiff",
    "fault_id",
]

#: JSONL container format tag + revision
FORMAT_NAME = "repro-results"
FORMAT_VERSION = 1

_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def _repro_version() -> str:
    from repro import __version__

    return __version__


def fault_id(fault: object) -> str:
    """The stable printable identity records carry.

    Scenarios use their ``describe()`` string, everything else its
    ``repr`` — both deterministic across processes, so identical
    campaigns serialise identically.
    """
    if isinstance(fault, str):
        return fault
    describe = getattr(fault, "describe", None)
    if callable(describe):
        return describe()
    return repr(fault)


@dataclass(frozen=True)
class Provenance:
    """What produced a group of records — enough to re-run or audit them.

    ``workload_spec`` / ``spec`` carry the full JSON forms when they are
    reasonably small (the generator workloads and design specs always
    are); huge explicit traces degrade to their label + digest, which
    still keys the store exactly.
    """

    #: campaign family: 'decoder' | 'scheme' | 'transient' | 'march' | ...
    campaign: str = ""
    #: engine policy that produced the records
    engine: Optional[str] = None
    collapse: Optional[bool] = None
    #: human label of the driving workload (e.g. ``uniform(64, 256, ...)``)
    workload: Optional[str] = None
    #: full Workload.to_dict() when compact enough to embed
    workload_spec: Optional[dict] = None
    scenario_count: Optional[int] = None
    #: sha256 over the canonical scenario descriptions
    scenario_digest: Optional[str] = None
    #: sha256 over the simulated target's structural identity
    target_digest: Optional[str] = None
    #: DesignSpec.to_dict() when the campaign came from a design flow
    spec: Optional[dict] = None
    repro_version: str = ""
    #: content-addressed store key, when the campaign was keyed
    key: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            k: v
            for k, v in dataclasses.asdict(self).items()
            if v is not None and v != ""
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown Provenance fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class ResultRecord:
    """One fault scenario's campaign outcome, fully serialisable.

    The record-level counterpart of
    :class:`~repro.faultsim.results.FaultRecord` with the live fault
    object flattened to its printable identity; ``provenance_index``
    points into the owning set's provenance table, so merged sets keep
    per-record lineage.
    """

    #: printable fault identity (see :func:`fault_id`)
    fault: str
    #: 'sa0' | 'sa1' | 'address' | 'memory' | 'rom' | 'transient' | ...
    kind: str
    first_detection: Optional[int] = None
    first_error: Optional[int] = None
    analytic_escape: Optional[float] = None
    provenance_index: int = 0

    @property
    def detected(self) -> bool:
        return self.first_detection is not None

    @property
    def latency(self) -> Optional[int]:
        """Cycles from first error to detection (0 = caught immediately)."""
        if self.first_detection is None or self.first_error is None:
            return None
        return self.first_detection - self.first_error

    def to_line_dict(self) -> dict:
        """Compact JSONL form (defaults omitted)."""
        line: Dict[str, object] = {"f": self.fault, "k": self.kind}
        if self.first_detection is not None:
            line["d"] = self.first_detection
        if self.first_error is not None:
            line["e"] = self.first_error
        if self.analytic_escape is not None:
            line["a"] = self.analytic_escape
        if self.provenance_index:
            line["p"] = self.provenance_index
        return line

    @classmethod
    def from_line_dict(cls, line: dict) -> "ResultRecord":
        return cls(
            fault=line["f"],
            kind=line["k"],
            first_detection=line.get("d"),
            first_error=line.get("e"),
            analytic_escape=line.get("a"),
            provenance_index=line.get("p", 0),
        )


@dataclass
class ResultSet(RecordStatistics):
    """Provenance-stamped records + the statistics of ``stats.py``."""

    records: List[ResultRecord] = field(default_factory=list)
    provenances: Tuple[Provenance, ...] = ()
    cycles_simulated: int = 0

    # -- provenance access ---------------------------------------------------

    @property
    def provenance(self) -> Optional[Provenance]:
        """The single provenance, when the set came from one run."""
        return self.provenances[0] if len(self.provenances) == 1 else None

    @property
    def engine(self) -> Optional[str]:
        engines = {p.engine for p in self.provenances}
        return engines.pop() if len(engines) == 1 else None

    def record_provenance(self, record: ResultRecord) -> Optional[Provenance]:
        if 0 <= record.provenance_index < len(self.provenances):
            return self.provenances[record.provenance_index]
        return None

    # -- construction --------------------------------------------------------

    def add(self, record: ResultRecord) -> None:
        self.records.append(record)

    def _spawn(self) -> "ResultSet":
        return ResultSet(
            records=[],
            provenances=self.provenances,
            cycles_simulated=self.cycles_simulated,
        )

    @classmethod
    def from_campaign(
        cls, result, provenance: Optional[Provenance] = None
    ) -> "ResultSet":
        """Flatten a :class:`CampaignResult` (fault objects become their
        printable identity)."""
        if provenance is None:
            provenance = getattr(result, "provenance", None) or Provenance(
                engine=result.engine, repro_version=_repro_version()
            )
        return cls(
            records=[
                ResultRecord(
                    fault=fault_id(r.fault),
                    kind=r.kind,
                    first_detection=r.first_detection,
                    first_error=r.first_error,
                    analytic_escape=r.analytic_escape,
                )
                for r in result.records
            ],
            provenances=(provenance,),
            cycles_simulated=result.cycles_simulated,
        )

    def to_campaign(self):
        """The :class:`CampaignResult` compatibility view (``fault`` is
        the printable identity string on this path)."""
        from repro.faultsim.results import CampaignResult, FaultRecord

        result = CampaignResult(
            records=[
                FaultRecord(
                    fault=r.fault,
                    kind=r.kind,
                    first_detection=r.first_detection,
                    first_error=r.first_error,
                    analytic_escape=r.analytic_escape,
                )
                for r in self.records
            ],
            cycles_simulated=self.cycles_simulated,
            engine=self.engine,
            provenance=self.provenance,
        )
        if self.provenance is not None:
            result.store_key = self.provenance.key
        return result

    # -- algebra -------------------------------------------------------------

    def merge(self, *others: "ResultSet") -> "ResultSet":
        """Union of several sets, per-record lineage preserved.

        Identical provenances deduplicate; record indexes are remapped.
        ``cycles_simulated`` keeps the common value, or the longest
        horizon when the runs differ.
        """
        provenances: List[Provenance] = []
        merged_records: List[ResultRecord] = []
        cycles = {self.cycles_simulated}
        for part in (self,) + others:
            cycles.add(part.cycles_simulated)
            remap: Dict[int, int] = {}
            for index, provenance in enumerate(part.provenances):
                if provenance in provenances:
                    remap[index] = provenances.index(provenance)
                else:
                    remap[index] = len(provenances)
                    provenances.append(provenance)
            for record in part.records:
                new_index = remap.get(record.provenance_index, 0)
                if new_index != record.provenance_index:
                    record = dataclasses.replace(
                        record, provenance_index=new_index
                    )
                merged_records.append(record)
        return ResultSet(
            records=merged_records,
            provenances=tuple(provenances),
            cycles_simulated=max(cycles),
        )

    def filter(
        self,
        predicate: Optional[Callable[[ResultRecord], bool]] = None,
        kind: Optional[str] = None,
        detected: Optional[bool] = None,
    ) -> "ResultSet":
        """Records matching a predicate and/or the field shortcuts."""
        out = self._spawn()
        for record in self.records:
            if kind is not None and record.kind != kind:
                continue
            if detected is not None and record.detected != detected:
                continue
            if predicate is not None and not predicate(record):
                continue
            out.records.append(record)
        return out

    def group_by(
        self, key: Union[str, Callable[[ResultRecord], object]]
    ) -> Dict[object, "ResultSet"]:
        """Partition by a record attribute name or a key function."""
        key_fn = (
            (lambda record: getattr(record, key))
            if isinstance(key, str)
            else key
        )
        out: Dict[object, ResultSet] = {}
        for record in self.records:
            group_key = key_fn(record)
            group = out.get(group_key)
            if group is None:
                group = out[group_key] = self._spawn()
            group.records.append(record)
        return out

    def diff(self, other: "ResultSet") -> "ResultDiff":
        """Record-matched comparison against another run (by fault
        identity + kind; the cross-run one-liner for vector-vs-serial,
        code-vs-code and workload-sweep questions)."""
        return ResultDiff.between(self, other)

    # -- serialisation -------------------------------------------------------

    def _lines(self) -> Iterator[str]:
        yield json.dumps(
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "cycles_simulated": self.cycles_simulated,
            },
            **_COMPACT,
        )
        for provenance in self.provenances:
            yield json.dumps({"provenance": provenance.to_dict()}, **_COMPACT)
        for record in self.records:
            yield json.dumps(record.to_line_dict(), **_COMPACT)

    def to_jsonl(self) -> str:
        return "\n".join(self._lines()) + "\n"

    def write_jsonl(self, target: Union[str, "os.PathLike", io.TextIOBase]):
        """Stream to a path or open text handle, one line at a time —
        constant memory beyond the records already held."""
        if hasattr(target, "write"):
            for line in self._lines():
                target.write(line + "\n")
            return
        with open(target, "w") as handle:
            self.write_jsonl(handle)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "ResultSet":
        header: Optional[dict] = None
        provenances: List[Provenance] = []
        records: List[ResultRecord] = []
        for raw in lines:
            raw = raw.strip()
            if not raw:
                continue
            data = json.loads(raw)
            if header is None:
                if data.get("format") != FORMAT_NAME:
                    raise ValueError(
                        f"not a {FORMAT_NAME} stream: first line {data!r}"
                    )
                if data.get("version") != FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported {FORMAT_NAME} version "
                        f"{data.get('version')!r}"
                    )
                header = data
            elif "provenance" in data:
                provenances.append(Provenance.from_dict(data["provenance"]))
            else:
                records.append(ResultRecord.from_line_dict(data))
        if header is None:
            raise ValueError("empty result stream")
        return cls(
            records=records,
            provenances=tuple(provenances),
            cycles_simulated=header.get("cycles_simulated", 0),
        )

    @classmethod
    def from_jsonl(cls, text: Union[str, bytes]) -> "ResultSet":
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return cls.from_lines(text.splitlines())

    @classmethod
    def read_jsonl(cls, path: Union[str, "os.PathLike"]) -> "ResultSet":
        with open(path) as handle:
            return cls.from_lines(handle)


class ResultSetWriter:
    """Producer-side streaming writer: header + provenance up front,
    then one line per :meth:`add` — a million-record campaign never
    materialises in memory.

    >>> # with ResultSetWriter(path, provenance, cycles) as writer:
    >>> #     for record in campaign_records():
    >>> #         writer.add(record)
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike"],
        provenance: Union[Provenance, Iterable[Provenance]],
        cycles_simulated: int = 0,
    ):
        self.path = path
        if isinstance(provenance, Provenance):
            provenance = (provenance,)
        self.provenances = tuple(provenance)
        self.cycles_simulated = cycles_simulated
        self.count = 0
        self._handle: Optional[io.TextIOBase] = None

    def __enter__(self) -> "ResultSetWriter":
        self._handle = open(self.path, "w")
        header = ResultSet(
            records=[],
            provenances=self.provenances,
            cycles_simulated=self.cycles_simulated,
        )
        for line in header._lines():
            self._handle.write(line + "\n")
        return self

    def add(self, record: ResultRecord) -> None:
        if self._handle is None:
            raise RuntimeError("writer used outside its context")
        self._handle.write(
            json.dumps(record.to_line_dict(), **_COMPACT) + "\n"
        )
        self.count += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class ResultDiff:
    """Structured comparison of two result sets, matched by fault
    identity + kind."""

    left_summary: Dict[str, object]
    right_summary: Dict[str, object]
    matched: int
    only_left: List[str]
    only_right: List[str]
    #: undetected on the left, detected on the right
    newly_detected: List[str]
    #: detected on the left, undetected on the right
    newly_undetected: List[str]
    #: detected on both but at a different cycle: (fault, left, right)
    detection_moved: List[Tuple[str, int, int]]
    coverage_delta: float

    @property
    def identical(self) -> bool:
        return not (
            self.only_left
            or self.only_right
            or self.newly_detected
            or self.newly_undetected
            or self.detection_moved
        )

    @staticmethod
    def _record_map(records) -> Dict[Tuple[str, str, int], "ResultRecord"]:
        """Match key per record: (fault, kind, occurrence index) — the
        occurrence index keeps duplicate fault entries (a legal campaign
        input) individually matched instead of silently collapsed."""
        seen: Dict[Tuple[str, str], int] = {}
        out: Dict[Tuple[str, str, int], ResultRecord] = {}
        for record in records:
            identity = (record.fault, record.kind)
            occurrence = seen.get(identity, 0)
            seen[identity] = occurrence + 1
            out[(record.fault, record.kind, occurrence)] = record
        return out

    @classmethod
    def between(cls, left: ResultSet, right: ResultSet) -> "ResultDiff":
        left_map = cls._record_map(left.records)
        right_map = cls._record_map(right.records)
        only_left = [
            fault for (fault, kind, occurrence) in left_map
            if (fault, kind, occurrence) not in right_map
        ]
        only_right = [
            fault for (fault, kind, occurrence) in right_map
            if (fault, kind, occurrence) not in left_map
        ]
        newly_detected: List[str] = []
        newly_undetected: List[str] = []
        moved: List[Tuple[str, int, int]] = []
        matched = 0
        for match_key, l_rec in left_map.items():
            r_rec = right_map.get(match_key)
            if r_rec is None:
                continue
            matched += 1
            # compare the Optional cycles directly so the type checker
            # sees the None checks the `detected` property hides
            l_cycle = l_rec.first_detection
            r_cycle = r_rec.first_detection
            if l_cycle is None and r_cycle is not None:
                newly_detected.append(l_rec.fault)
            elif l_cycle is not None and r_cycle is None:
                newly_undetected.append(l_rec.fault)
            elif (
                l_cycle is not None
                and r_cycle is not None
                and l_cycle != r_cycle
            ):
                moved.append((l_rec.fault, l_cycle, r_cycle))
        return cls(
            left_summary=left.summary(),
            right_summary=right.summary(),
            matched=matched,
            only_left=only_left,
            only_right=only_right,
            newly_detected=newly_detected,
            newly_undetected=newly_undetected,
            detection_moved=moved,
            coverage_delta=right.coverage - left.coverage,
        )

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["identical"] = self.identical
        data["detection_moved"] = [
            list(entry) for entry in self.detection_moved
        ]
        return data

    def render(self) -> str:
        out = io.StringIO()
        out.write(
            f"result diff — {self.matched} matched records, "
            f"coverage {self.left_summary['coverage']} -> "
            f"{self.right_summary['coverage']} "
            f"(delta {self.coverage_delta:+.6f})\n"
        )
        if self.identical:
            out.write("    identical outcomes record-by-record\n")
            return out.getvalue()
        for label, entries in (
            ("only left", self.only_left),
            ("only right", self.only_right),
            ("newly detected", self.newly_detected),
            ("newly undetected", self.newly_undetected),
        ):
            if entries:
                shown = ", ".join(entries[:5])
                more = f" (+{len(entries) - 5} more)" if len(entries) > 5 else ""
                out.write(f"    {label:<16}: {len(entries)} — {shown}{more}\n")
        if self.detection_moved:
            shown = ", ".join(
                f"{fault} {before}->{after}"
                for fault, before, after in self.detection_moved[:5]
            )
            more = (
                f" (+{len(self.detection_moved) - 5} more)"
                if len(self.detection_moved) > 5
                else ""
            )
            out.write(
                f"    detection moved : {len(self.detection_moved)} — "
                f"{shown}{more}\n"
            )
        return out.getvalue()
