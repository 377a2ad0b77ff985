"""Recompute ``perfbench/reference.json`` with the serial oracle.

For ``fault_dense`` each seed of :data:`SEEDS` gets the digest
of its canonical records (fault identity, kind, first detection, first
error) and its fault, detected and coverage counts, computed with
``CampaignEngine(engine="serial")`` — the unoptimised per-cycle oracle.
``paper_grid`` gets the digest of its per-cell summaries from one cold
in-process ``SuiteRunner`` run.  Run it only when the program's outputs
change on purpose; the benchmark checks every run against this file.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from measure import SRC, canonical_lines, digest

#: the seed the benchmark documents its counts for
DEFAULT_SEED = 1
#: never used to tune the benchmark or the program; see README.md
HELD_OUT_SEED = 7919
#: the seeds with committed campaign references
SEEDS = list(range(16)) + [HELD_OUT_SEED]


def campaign_reference(name: str, seed: int) -> dict:
    import campaigns
    from repro import CampaignEngine

    spec = campaigns.WORKLOADS[name]
    memory, scenarios = campaigns.build_target(spec)
    workload = campaigns.make_workload(spec, memory, seed)
    result = CampaignEngine(engine="serial").scheme(
        memory, workload, scenarios
    )
    detected = sum(1 for r in result.records if r.first_detection is not None)
    return {
        "digest": digest(canonical_lines(result.records)),
        "faults": len(result.records),
        "detected": detected,
        "coverage": detected / len(result.records),
    }


def grid_reference() -> dict:
    import grid
    from repro.suite import SuiteRunner
    from repro.suite.builtin import builtin_suite

    with tempfile.TemporaryDirectory() as store:
        report = SuiteRunner(store=store).run(builtin_suite(grid.SUITE))
    data = report.to_dict()
    return {
        "digest": digest(grid.stable_lines(data)),
        "cells": data["execution"]["cells"],
    }


def main() -> int:
    sys.path.insert(0, str(SRC))
    import campaigns

    reference = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "paper_grid": grid_reference(),
    }
    for name in campaigns.WORKLOADS:
        reference[name] = {}
        for seed in SEEDS:
            reference[name][str(seed)] = campaign_reference(name, seed)
            print(name, seed, reference[name][str(seed)], flush=True)
    path = Path(__file__).with_name("reference.json")
    with open(path, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
