"""Helpers shared by the workloads: sample collection, timing loops,
``repro`` CLI processes, record digests and failure accounting."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: the checkout the benchmark measures (``perfbench/`` sits at its root)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Samples:
    """Named lists of measured values."""

    def __init__(self) -> None:
        self.values: Dict[str, List[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def extend(self, values: Dict[str, float]) -> None:
        for name, value in values.items():
            self.add(name, value)

    def median(self, name: str) -> float:
        values = self.values.get(name)
        return statistics.median(values) if values else 0.0

    def minimum(self, name: str) -> float:
        values = self.values.get(name)
        return min(values) if values else 0.0

    def lines(self) -> List[str]:
        """One human-readable line per series: quantiles and count."""
        out = []
        for name in sorted(self.values):
            values = self.values[name]
            out.append(
                f"  {name:<34} median {self.median(name):<12.6g} "
                f"min {min(values):<12.6g} max {max(values):<12.6g} "
                f"n={len(values)}"
            )
        return out


class Outcome:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


def timed(fn: Callable, *args, **kwargs) -> Tuple[object, float]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


#: samples a run takes however short its ``--seconds``
MIN_SAMPLES = 3


def until(seconds: float):
    """Sample indexes for a loop that runs ``seconds`` (at least
    MIN_SAMPLES iterations).  Each sample starts after a full garbage
    collection, so one sample's garbage is not charged to the next."""
    deadline = time.perf_counter() + seconds
    index = 0
    while index < MIN_SAMPLES or time.perf_counter() < deadline:
        gc.collect()
        yield index
        index += 1


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_STORE", None)
    env.pop("REPRO_URL", None)
    return env


def python_process(
    args: Sequence[str], timeout: float = 120.0
) -> Tuple[subprocess.CompletedProcess, float]:
    """Run ``python <args>`` against the checkout's sources; the wall
    time covers interpreter start to exit."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return done, time.perf_counter() - start


def canonical_lines(records) -> List[str]:
    """One canonical JSON line per record: fault identity, kind, first
    detection and first error (provenance and versions excluded)."""
    from repro.results import fault_id

    return [
        json.dumps(
            [fault_id(r.fault), r.kind, r.first_detection, r.first_error],
            separators=(",", ":"),
        )
        for r in records
    ]


def digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def load_reference() -> dict:
    with open(Path(__file__).with_name("reference.json")) as handle:
        return json.load(handle)


#: ``import repro.cli`` processes per traced run
IMPORT_REPEATS = 3


def cli_import(samples: Samples, outcome: Outcome) -> None:
    """``cli.import_s``: a process that only imports the CLI."""
    for _ in range(IMPORT_REPEATS):
        done, elapsed = python_process(["-c", "import repro.cli"])
        outcome.check(done.returncode == 0, "import repro.cli failed")
        samples.add("cli.import_s", elapsed)


def metric_values(samples: Samples, trace: bool) -> Dict[str, float]:
    """Untraced: the end-to-end timings and the peak memory.  Traced:
    the median of every per-layer series (named ``layer.metric``) plus
    the traced cold time and the tracing overhead against the untraced
    samples of the same run.

    ``campaign_s``, ``resumed_s`` and ``cli_s`` report the fastest
    sample of the run.  Other tenants' load on the host only ever slows
    a sample, in phases lasting seconds to minutes, so the fastest
    sample is the one least disturbed; over two ten-run sets it spread
    less from run to run than the median or the mean of the fastest
    fifth.  A slowdown of the program itself moves every sample, the
    fastest included.  ``setup_s`` reports the median of its many
    set-ups."""
    if not trace:
        values = {
            name: samples.minimum(name)
            for name in ("campaign_s", "resumed_s", "cli_s")
        }
        values["setup_s"] = samples.median("setup_s")
        values["peak_rss_mb"] = peak_rss_mb()
        return values
    values = {
        name: samples.median(name) for name in samples.values if "." in name
    }
    traced = samples.median("traced_s")
    values["trace.campaign_s"] = traced
    values["trace.overhead_s"] = traced - samples.median("untraced_s")
    return values
