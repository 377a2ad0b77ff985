"""`ResultStore` — content-addressed campaign cache on plain files.

The store maps a **campaign key** — the sha256 of the canonical JSON of
``(campaign family, target identity, scenario population, workload,
collapse policy)`` — to a serialised :class:`~repro.results.resultset.
ResultSet`.  Identical re-runs are served from disk (and verified by
hash) instead of re-invoking the simulator; ``workers=N`` campaigns
additionally checkpoint per shard, so an interrupted campaign resumes
from its completed shards.

Layout (one directory, no database)::

    <root>/<key>.jsonl        the ResultSet, canonical JSONL
    <root>/<key>.meta.json    key material, summary, sha256, created_at
                              (one compact JSON line)
    <root>/reports/<key>.json cached DesignReport JSON (design flow)
    <root>/cells/<digest>     suite cell index: {"key", "source"}

A payload without its meta file is treated as absent (interrupted
writes never poison the cache); a payload whose bytes no longer hash to
the recorded sha256 raises :class:`ResultStoreError` — a hit is always
a *verified* hit.

The cell index maps the digest of a suite cell to the key its campaign
was stored under, stamped with the source fingerprint of the code that
computed the key (:mod:`repro.suite.runner` decides when to read and
write it).  An entry is a pointer, not an artifact: a torn or dangling
one reads as absent, and :meth:`ResultStore.verify_all` ignores it.

Execution details that are proven result-invariant — ``engine``
(vector fast path or serial oracle), ``workers`` (pool sharding) and
``chunk`` (lane windows) — are deliberately **excluded** from the key,
so a re-run on another engine or on different hardware still hits.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.results.resultset import ResultSet

__all__ = [
    "canonical_json",
    "content_digest",
    "campaign_key",
    "describe_target",
    "scenario_material",
    "workload_material",
    "StoreStats",
    "StoreEntry",
    "ResultStore",
    "ResultStoreError",
]


class ResultStoreError(RuntimeError):
    """A store artifact is corrupt or inconsistent with its metadata."""


#: what every store key is: a sha256 hex digest
_KEY_RE = re.compile(r"[0-9a-f]{64}")


def _tmp_path(path: str) -> str:
    """A temp name no other writer shares: concurrent writers of one
    path — sweep workers, parallel CI shards, the job threads of one
    ``repro serve`` process — each promote a complete file instead of
    one moving the other's half-written ``.tmp`` away."""
    return f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"


# -- canonical hashing --------------------------------------------------------


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, ``repr`` fallback
    for the rare non-JSON leaf (e.g. a Fraction inside key material)."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=repr
    )


def content_digest(payload: Union[str, bytes]) -> str:
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def campaign_key(material: dict) -> str:
    """The content address of one campaign: sha256 over the canonical
    JSON of its key material."""
    return content_digest(canonical_json(material))


# -- key material helpers -----------------------------------------------------


def _circuit_material(circuit) -> List[Tuple]:
    return [
        (gate.gate_type.value, tuple(gate.inputs), gate.output)
        for gate in circuit.gates
    ]


def describe_target(target: object) -> dict:
    """Structural identity of a simulated object, digest-sized.

    Exact for the built-in targets: a checked decoder keys on its gate
    network plus the full ROM programming, a self-checking memory on its
    organisation and both decoders, a behavioural RAM on organisation
    and parity config.  Unknown targets fall back to ``repr`` — override
    by giving the object a ``cache_material()`` method returning a
    JSON-able dict.
    """
    custom = getattr(target, "cache_material", None)
    if callable(custom):
        return {"type": type(target).__name__, "material": custom()}
    name = type(target).__name__
    # CheckedDecoder: gate network + ROM programming, one row per
    # address — the rows its NOR matrix was programmed with, else the
    # mapping's table (both are mapping.codeword of every address)
    tree = getattr(target, "tree", None)
    mapping = getattr(target, "mapping", None)
    if tree is not None and mapping is not None:
        matrix = getattr(target, "matrix", None)
        rows = matrix.rows if matrix is not None else mapping.table()
        return {
            "type": name,
            "n_bits": mapping.n_bits,
            "rom": [list(row) for row in rows],
            "circuit": content_digest(
                canonical_json(_circuit_material(tree.circuit))
            ),
        }
    # SelfCheckingMemory: organisation + both checked decoders
    if hasattr(target, "row") and hasattr(target, "column"):
        return {
            "type": name,
            "organization": target.organization.label(),
            "row": describe_target(target.row),
            "column": describe_target(target.column),
        }
    # BehavioralRAM: organisation + parity configuration
    if hasattr(target, "with_parity") and hasattr(target, "organization"):
        parity = getattr(target, "parity_code", None)
        return {
            "type": name,
            "organization": target.organization.label(),
            "with_parity": bool(target.with_parity),
            "parity": repr(parity) if parity is not None else None,
        }
    # Checkers: type + observable shape
    if hasattr(target, "input_width"):
        return {
            "type": name,
            "input_width": target.input_width,
            "repr": _stable_repr(target),
        }
    return {"type": name, "repr": _stable_repr(target)}


def _stable_repr(target: object) -> str:
    """A repr safe to key on.

    The default ``<... object at 0x...>`` form is replaced by the class
    name plus the instance state (``vars``), so differently-configured
    custom targets never share a key — at worst an address buried in a
    nested default repr makes the key process-unique, which costs a
    cache miss, never a wrong hit.
    """
    text = repr(target)
    if " at 0x" not in text:
        return text
    state = getattr(target, "__dict__", None)
    if state:
        rendered = {name: repr(value) for name, value in state.items()}
        return f"{type(target).__name__}({canonical_json(rendered)})"
    return type(target).__name__


def scenario_material(descriptions: Sequence[str]) -> dict:
    """Digest form of a scenario population (kept small in metadata
    regardless of campaign size)."""
    return {
        "count": len(descriptions),
        "digest": content_digest(canonical_json(list(descriptions))),
    }


def workload_material(workload) -> dict:
    """Digest form of a workload (full dict never lands in the key, so
    million-address explicit traces stay cheap to key)."""
    spec = workload.to_dict()
    return {
        "label": workload.label(),
        "digest": content_digest(canonical_json(spec)),
        "cycles": len(workload),
    }


# -- the store ----------------------------------------------------------------


@dataclass
class StoreStats:
    """Per-instance cache counters (surfaced by the CLI's ``--json``)."""

    requests: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: hash-verified reads (every hit is verified unless verify=False)
    verified: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "verified": self.verified,
        }


@dataclass(frozen=True)
class StoreEntry:
    """One stored campaign, as ``repro results ls`` shows it."""

    key: str
    campaign: str
    faults: int
    coverage: Optional[float]
    cycles_simulated: Optional[int]
    engine: Optional[str]
    created_at: float
    size_bytes: int
    repro_version: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ResultStore:
    """Content-addressed, hash-verified campaign artifact store."""

    root: str
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self):
        self.root = os.fspath(self.root)
        os.makedirs(self.root, exist_ok=True)

    @classmethod
    def coerce(cls, store) -> Optional["ResultStore"]:
        """The one ``store=`` normaliser every layer shares: ``None``
        passes through, an existing store is returned as-is, a path
        opens one."""
        if store is None or isinstance(store, cls):
            return store
        return cls(store)

    # -- paths ---------------------------------------------------------------

    def _payload_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.jsonl")

    def _meta_path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.meta.json")

    def _report_path(self, key: str) -> str:
        return os.path.join(self.root, "reports", f"{key}.json")

    def _cell_path(self, digest: str) -> str:
        return os.path.join(self.root, "cells", digest)

    # -- core operations -----------------------------------------------------

    def contains(self, key: str) -> bool:
        return os.path.exists(self._meta_path(key)) and os.path.exists(
            self._payload_path(key)
        )

    def put(
        self,
        key: str,
        result_set: ResultSet,
        material: Optional[dict] = None,
    ) -> str:
        """Serialise and store under ``key``.

        Crash-safe protocol: retract the old meta first, replace the
        payload, then promote the new meta atomically — the meta file
        marks completeness, so a write interrupted at *any* point reads
        as a miss on the next run, never as a corrupt (or stale) hit.
        """
        payload = result_set.to_jsonl()
        payload_path = self._payload_path(key)
        meta_path = self._meta_path(key)
        # suppress, not exists+remove: two writers racing the same key
        # (shared-store runners, service job threads) may both see the
        # old meta and only one remove can win
        with contextlib.suppress(FileNotFoundError):
            os.remove(meta_path)
        tmp_path = _tmp_path(payload_path)
        with open(tmp_path, "w") as handle:
            handle.write(payload)
        os.replace(tmp_path, payload_path)
        meta = {
            "key": key,
            "sha256": content_digest(payload),
            "material": material,
            "shard": (material or {}).get("shard"),
            "summary": result_set.summary(),
            "campaign": (
                result_set.provenance.campaign
                if result_set.provenance
                else ""
            ),
            "repro_version": (
                result_set.provenance.repro_version
                if result_set.provenance
                else ""
            ),
            "created_at": time.time(),
        }
        tmp_meta = _tmp_path(meta_path)
        with open(tmp_meta, "w") as handle:
            # one compact line: json's C encoder (indent=2 would run its
            # pure-Python one over the full ROM tables in the material)
            handle.write(
                json.dumps(meta, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        os.replace(tmp_meta, meta_path)
        self.stats.puts += 1
        return key

    def payload(self, key: str, verify: bool = True) -> Optional[str]:
        """The raw JSONL payload, hash-verified like :meth:`get`.

        The read side the service layer streams from request threads:
        no :class:`ResultSet` parse, no re-serialisation — the stored
        bytes, verified against the recorded sha256.  Counted in
        :attr:`stats` exactly like ``get`` (it *is* ``get`` without the
        parse)."""
        self.stats.requests += 1
        if not self.contains(key):
            self.stats.misses += 1
            return None
        try:
            with open(self._meta_path(key)) as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            # an unreadable meta is an incomplete write, not tampering
            self.stats.misses += 1
            return None
        with open(self._payload_path(key)) as handle:
            payload = handle.read()
        if verify:
            digest = content_digest(payload)
            if digest != meta.get("sha256"):
                raise ResultStoreError(
                    f"store entry {key[:12]}… failed hash verification "
                    f"(expected {meta.get('sha256')!r:.20}, got "
                    f"{digest!r:.20}) — the artifact was modified or "
                    f"truncated on disk"
                )
            self.stats.verified += 1
        self.stats.hits += 1
        return payload

    def get(self, key: str, verify: bool = True) -> Optional[ResultSet]:
        """The stored set, hash-verified against its metadata; ``None``
        on a miss, :class:`ResultStoreError` on corruption (a payload
        whose bytes no longer hash to the recorded sha256 — evidence of
        tampering, never of an interrupted write)."""
        payload = self.payload(key, verify=verify)
        if payload is None:
            return None
        return ResultSet.from_jsonl(payload)

    def meta(self, key: str) -> Optional[dict]:
        try:
            with open(self._meta_path(key)) as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def delete(self, key: str) -> bool:
        removed = False
        for path in (self._payload_path(key), self._meta_path(key)):
            if os.path.exists(path):
                os.remove(path)
                removed = True
        return removed

    # -- suite cell index ----------------------------------------------------

    def cell_entry(self, digest: str) -> Optional[dict]:
        """The index entry ``{"key", "source"}`` stored under a cell
        digest; ``None`` when there is none or it is torn (not counted
        in :attr:`stats`: the entry is a pointer, the read of what it
        points at is the counted one)."""
        try:
            with open(self._cell_path(digest)) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("key"), str)
            or not _KEY_RE.fullmatch(entry["key"])
            or not isinstance(entry.get("source"), str)
        ):
            return None
        return entry

    def put_cell_entry(self, digest: str, key: str, source: str) -> None:
        """Point a cell digest at a store key (atomic replace)."""
        path = self._cell_path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp_path = _tmp_path(path)
        with open(tmp_path, "w") as handle:
            handle.write(canonical_json({"key": key, "source": source}))
        os.replace(tmp_path, path)

    # -- listing / resolution ------------------------------------------------

    def keys(self, include_shards: bool = False) -> List[str]:
        """Stored campaign keys.  Shard checkpoints — the internal
        resume artifacts ``workers=N`` runs leave behind — are hidden
        unless ``include_shards``."""
        out = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".meta.json"):
                continue
            key = name[: -len(".meta.json")]
            if not include_shards:
                meta = self.meta(key)
                if meta is not None and meta.get("shard"):
                    continue
            out.append(key)
        return out

    def entries(self) -> List[StoreEntry]:
        entries = []
        for key in self.keys():
            meta = self.meta(key)
            if meta is None:
                continue
            summary = meta.get("summary") or {}
            try:
                size = os.path.getsize(self._payload_path(key))
            except OSError:
                size = 0
            entries.append(
                StoreEntry(
                    key=key,
                    campaign=meta.get("campaign", ""),
                    faults=summary.get("faults", 0),
                    coverage=summary.get("coverage"),
                    cycles_simulated=summary.get("cycles_simulated"),
                    engine=summary.get("engine"),
                    created_at=meta.get("created_at", 0.0),
                    size_bytes=size,
                    repro_version=meta.get("repro_version", ""),
                )
            )
        return entries

    def report_keys(self) -> List[str]:
        """Keys of the design-report side table (see
        :meth:`put_report`)."""
        reports_dir = os.path.join(self.root, "reports")
        if not os.path.isdir(reports_dir):
            return []
        return sorted(
            name[: -len(".json")]
            for name in os.listdir(reports_dir)
            if name.endswith(".json")
        )

    def usage(self) -> dict:
        """Size/occupancy counters for ``repro store stats``: campaign
        and shard entries, report side-table entries, suite cell index
        entries, payload bytes and the total on-disk footprint of the
        store directory."""
        campaigns = self.keys()
        all_keys = self.keys(include_shards=True)
        payload_bytes = 0
        for key in all_keys:
            with contextlib.suppress(OSError):
                payload_bytes += os.path.getsize(self._payload_path(key))
        reports = self.report_keys()
        report_bytes = 0
        for key in reports:
            with contextlib.suppress(OSError):
                report_bytes += os.path.getsize(self._report_path(key))
        cells_dir = os.path.join(self.root, "cells")
        cells = 0
        if os.path.isdir(cells_dir):
            cells = sum(
                not name.endswith(".tmp") for name in os.listdir(cells_dir)
            )
        total_bytes = 0
        for base, _dirs, names in os.walk(self.root):
            for name in names:
                with contextlib.suppress(OSError):
                    total_bytes += os.path.getsize(
                        os.path.join(base, name)
                    )
        return {
            "root": self.root,
            "campaigns": len(campaigns),
            "shards": len(all_keys) - len(campaigns),
            "reports": len(reports),
            "cells": cells,
            "payload_bytes": payload_bytes,
            "report_bytes": report_bytes,
            "total_bytes": total_bytes,
        }

    # -- verification sweep --------------------------------------------------

    def verify_entry(self, key: str) -> Optional[str]:
        """``None`` when the entry's payload hashes to its recorded
        sha256, else a one-line diagnostic (never raises — this is the
        sweep primitive behind ``repro store verify``)."""
        meta = self.meta(key)
        if meta is None:
            return f"{key}: metadata missing or unreadable"
        payload_path = self._payload_path(key)
        try:
            with open(payload_path) as handle:
                payload = handle.read()
        except OSError:
            return f"{key}: payload missing or unreadable"
        digest = content_digest(payload)
        if digest != meta.get("sha256"):
            return (
                f"{key}: sha256 mismatch (expected "
                f"{str(meta.get('sha256'))[:12]}…, got {digest[:12]}…)"
            )
        return None

    def verify_all(self) -> dict:
        """Hash-verify every artifact — campaign payloads, shard
        checkpoints and report side-table entries — and report the
        failures (``repro store verify`` exits 2 when any)."""
        failures: List[str] = []
        keys = self.keys(include_shards=True)
        for key in keys:
            issue = self.verify_entry(key)
            if issue is not None:
                failures.append(issue)
        reports = self.report_keys()
        for key in reports:
            try:
                if self.get_report(key) is None:
                    failures.append(f"report {key}: unreadable")
            except ResultStoreError as exc:
                failures.append(f"report {key}: {exc}")
        return {
            "root": self.root,
            "checked": len(keys) + len(reports),
            "entries": len(keys),
            "reports": len(reports),
            "failures": failures,
            "ok": not failures,
        }

    def resolve(self, prefix: str) -> str:
        """A unique full key from a human-typed prefix.

        Raises ``LookupError`` (not ``KeyError``, whose ``str`` form
        quotes the message) so the CLI surfaces it cleanly.
        """
        matches = [key for key in self.keys() if key.startswith(prefix)]
        if not matches:
            raise LookupError(
                f"no store entry matches {prefix!r} in {self.root}"
            )
        if len(matches) > 1:
            raise LookupError(
                f"{prefix!r} is ambiguous: "
                f"{', '.join(m[:12] + '…' for m in matches)}"
            )
        return matches[0]

    # -- design-report side table --------------------------------------------

    def put_report(self, key: str, report_dict: dict) -> str:
        """Store a report dict, content-hashed like the campaign
        payloads (atomic replace; counted in :attr:`stats`)."""
        os.makedirs(os.path.join(self.root, "reports"), exist_ok=True)
        path = self._report_path(key)
        envelope = {
            "format": 1,
            "sha256": content_digest(canonical_json(report_dict)),
            "report": report_dict,
        }
        tmp_path = _tmp_path(path)
        with open(tmp_path, "w") as handle:
            json.dump(envelope, handle, sort_keys=True)
            handle.write("\n")
        os.replace(tmp_path, path)
        self.stats.puts += 1
        return key

    def get_report(self, key: str, verify: bool = True) -> Optional[dict]:
        """The stored report dict, hash-verified; ``None`` on a miss.

        Report hits count in :attr:`stats` exactly like campaign hits,
        so a resumed design sweep is observable as requests == hits.
        Pre-1.5 entries (raw dicts without the hash envelope) are still
        served, as unverified hits.
        """
        self.stats.requests += 1
        path = self._report_path(key)
        if not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.stats.misses += 1
            return None
        if not isinstance(data, dict) or "report" not in data:
            self.stats.hits += 1
            return data
        report = data["report"]
        if verify:
            digest = content_digest(canonical_json(report))
            if digest != data.get("sha256"):
                raise ResultStoreError(
                    f"report entry {key[:12]}… failed hash verification "
                    f"(expected {data.get('sha256')!r:.20}, got "
                    f"{digest!r:.20})"
                )
            self.stats.verified += 1
        self.stats.hits += 1
        return report
