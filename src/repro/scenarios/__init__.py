"""`repro.scenarios` — the unified scenario layer (1.3).

One vocabulary drives every campaign:

* :class:`Workload` — seeded, composable, chunk-iterable stimulus
  (uniform / sequential / bursty / scrubbed / march-derived / mixed
  read-write, plus concatenation and interleaving);
* :class:`FaultScenario` — structural stuck-ats, behavioural memory
  faults, transient upsets and multi-fault combinations under one
  hierarchy;
* :class:`CampaignEngine` — the facade routing any scenario family to
  the ``"vector"`` fast path or the ``"serial"`` bit-identity oracle,
  with ``collapse`` / ``workers`` / ``chunk`` execution policy; every
  campaign returns a :class:`repro.results.ResultSet`.
"""

from repro.scenarios.engine import CampaignEngine
from repro.scenarios.faults import (
    FaultScenario,
    MemoryScenario,
    StructuralScenario,
    TransientScenario,
    as_scenarios,
)
from repro.scenarios.workload import (
    NAMED_WORKLOADS,
    Access,
    BurstyWorkload,
    ConcatWorkload,
    ExplicitWorkload,
    InterleavedWorkload,
    MarchWorkload,
    MixedWorkload,
    ScrubbedWorkload,
    SequentialWorkload,
    UniformWorkload,
    Workload,
    as_workload,
    named_workload,
    workload_kinds,
)

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
    "FaultScenario",
    "StructuralScenario",
    "MemoryScenario",
    "TransientScenario",
    "as_scenarios",
    "CampaignEngine",
]
