"""`ResultSet` — the one campaign result type.

Every campaign returns a :class:`ResultSet`, whose records are plain
JSON-able values — the fault's printable identity, its routing kind,
the first-error and first-detection cycles — stamped with a
:class:`Provenance` describing exactly what produced them (design spec,
scenario population, workload, engine policy, repro version).  A fresh
run and the same campaign served from a
:class:`~repro.results.store.ResultStore` are equal, value for value.

* **statistics** — coverage, detection-cycle moments,
  :meth:`ResultSet.escape_fraction_at` (the empirical counterpart of
  the paper's ``Pndc``) and latency histograms;
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
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
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

#: the one encoder of record lines: ``json.dumps`` with keyword
#: arguments builds a new encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


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
        """The fields that differ from their defaults (``""`` survives
        where the default is ``None``)."""
        return {
            k: v
            for k, v in dataclasses.asdict(self).items()
            if v != _PROVENANCE_DEFAULTS[k]
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


_PROVENANCE_DEFAULTS = {
    field.name: field.default for field in dataclasses.fields(Provenance)
}


@dataclass
class ResultRecord:
    """One fault scenario's campaign outcome, fully serialisable.

    ``fault`` is the printable identity (:func:`fault_id`), never the
    live fault object; ``provenance_index`` points into the owning set's
    provenance table, so merged sets keep per-record lineage.  Campaign
    drivers build one record per fault, so the class is not frozen (a
    frozen ``__init__`` costs three times as much); treat records as
    values all the same.
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
        # positional: a parse builds one record per stored line
        return cls(
            line["f"],
            line["k"],
            line.get("d"),
            line.get("e"),
            line.get("a"),
            line.get("p", 0),
        )


@dataclass
class ResultSet:
    """Provenance-stamped records and the statistics over them."""

    records: List[ResultRecord] = field(default_factory=list)
    provenances: Tuple[Provenance, ...] = ()
    cycles_simulated: int = 0
    #: True when a CampaignEngine served the set from its store instead
    #: of simulating; how the set was obtained, not part of its value
    from_store: bool = field(default=False, init=False, compare=False)

    # -- provenance access ---------------------------------------------------

    @property
    def provenance(self) -> Optional[Provenance]:
        """The single provenance, when the set came from one run."""
        return self.provenances[0] if len(self.provenances) == 1 else None

    @property
    def engine(self) -> Optional[str]:
        engines = {p.engine for p in self.provenances}
        return engines.pop() if len(engines) == 1 else None

    @property
    def store_key(self) -> Optional[str]:
        """The content-addressed store key, when the campaign was keyed."""
        provenance = self.provenance
        return provenance.key if provenance is not None else None

    def record_provenance(self, record: ResultRecord) -> Optional[Provenance]:
        if 0 <= record.provenance_index < len(self.provenances):
            return self.provenances[record.provenance_index]
        return None

    def to_result_set(self) -> "ResultSet":
        """The set itself (campaigns have returned ``ResultSet`` since
        2.1; kept so callers written against the 2.0 converter run)."""
        return self

    # -- construction --------------------------------------------------------

    def add(self, record: ResultRecord) -> None:
        self.records.append(record)

    def _spawn(self) -> "ResultSet":
        """An empty sibling carrying the same provenance and horizon."""
        return ResultSet(
            records=[],
            provenances=self.provenances,
            cycles_simulated=self.cycles_simulated,
        )

    # -- counts --------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def detected(self) -> int:
        return sum(1 for r in self.records if r.detected)

    @property
    def coverage(self) -> float:
        return self.detected / self.total if self.records else 1.0

    def undetected(self) -> List[ResultRecord]:
        return [r for r in self.records if not r.detected]

    # -- detection-cycle statistics ------------------------------------------

    def detection_cycles(self) -> List[int]:
        return [
            r.first_detection
            for r in self.records
            if r.first_detection is not None
        ]

    def mean_detection_cycle(self) -> float:
        """NaN when nothing was detected (see :meth:`summary` for the
        JSON-safe ``None`` mapping)."""
        cycles = self.detection_cycles()
        return sum(cycles) / len(cycles) if cycles else math.nan

    def max_detection_cycle(self) -> Optional[int]:
        cycles = self.detection_cycles()
        return max(cycles) if cycles else None

    def detected_within(self, c: int) -> int:
        """Faults detected within the first ``c`` cycles (cycle < c)."""
        return sum(1 for cycle in self.detection_cycles() if cycle < c)

    def escape_fraction_at(self, c: int) -> float:
        """Fraction of faults still undetected after ``c`` cycles —
        the empirical counterpart of the paper's ``Pndc`` (averaged over
        the fault list rather than the worst site)."""
        if not self.records:
            return 0.0
        return 1.0 - self.detected_within(c) / self.total

    def latency_histogram(
        self, bins: Optional[List[int]] = None
    ) -> Dict[str, int]:
        """Counts of first-detection cycles in ranges (for the figures)."""
        if bins is None:
            bins = [1, 2, 5, 10, 20, 50, 100]
        edges = [0] + sorted(bins)
        cycles = self.detection_cycles()
        hist: Dict[str, int] = {}
        for lo, hi in zip(edges, edges[1:]):
            hist[f"[{lo},{hi})"] = sum(1 for c in cycles if lo <= c < hi)
        last = edges[-1]
        hist[f"[{last},inf)"] = sum(1 for c in cycles if c >= last)
        hist["undetected"] = self.total - len(cycles)
        return hist

    def summary(self) -> Dict[str, object]:
        """Strictly JSON-compliant: ``mean_detection_cycle`` is ``None``
        (JSON ``null``) on zero detections, never ``NaN`` — ``NaN``
        would make ``json.dumps`` emit non-compliant JSON."""
        mean = self.mean_detection_cycle()
        return {
            "faults": self.total,
            "detected": self.detected,
            "coverage": round(self.coverage, 6),
            "mean_detection_cycle": None if math.isnan(mean) else mean,
            "max_detection_cycle": self.max_detection_cycle(),
            "cycles_simulated": self.cycles_simulated,
            "engine": self.engine,
        }

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
        encode = _ENCODER.encode
        yield encode(
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "cycles_simulated": self.cycles_simulated,
            }
        )
        for provenance in self.provenances:
            yield encode({"provenance": provenance.to_dict()})
        for record in self.records:
            yield encode(record.to_line_dict())

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
        """Parse a stream of JSONL lines (blank lines are skipped).

        The lines after the header parse in one ``json.loads`` over
        their comma-joined array, which is about twice as fast as a
        call per line; a line holding two values, or anything but one
        JSON object, still fails with ``ValueError``, through the
        element count and type checks."""
        kept = [raw for raw in (line.strip() for line in lines) if raw]
        if not kept:
            raise ValueError("empty result stream")
        header = json.loads(kept[0])
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError(
                f"not a {FORMAT_NAME} stream: first line {header!r}"
            )
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported {FORMAT_NAME} version "
                f"{header.get('version')!r}"
            )
        body = kept[1:]
        items = json.loads("[" + ",".join(body) + "]")
        if len(items) != len(body):
            raise ValueError(
                f"malformed {FORMAT_NAME} stream: {len(body)} lines "
                f"hold {len(items)} JSON values"
            )
        provenances: List[Provenance] = []
        records: List[ResultRecord] = []
        record = ResultRecord.from_line_dict
        for item in items:
            if type(item) is not dict:
                raise ValueError(
                    f"malformed {FORMAT_NAME} stream: line {item!r:.80} "
                    f"is not a JSON object"
                )
            if "provenance" in item:
                provenances.append(Provenance.from_dict(item["provenance"]))
            else:
                records.append(record(item))
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
        self._handle.write(_ENCODER.encode(record.to_line_dict()) + "\n")
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
