"""Behavioural memory models: organisation, RAM, ROM, CAM, fault models."""

from repro.memory.cam import BehavioralCAM
from repro.memory.faults import (
    CellStuckAt,
    CouplingFault,
    DataLineStuckAt,
    MemoryFault,
    MuxLineStuckAt,
)
from repro.memory.march import (
    MARCH_C_MINUS,
    MARCH_X,
    MARCH_Y,
    MATS_PLUS,
    MarchElement,
    MarchTest,
    MarchViolation,
    run_march,
)
from repro.memory.organization import (
    PAPER_ORGS,
    MemoryOrganization,
    paper_org,
)
from repro.memory.ram import BehavioralRAM
from repro.memory.rom_mem import BehavioralROM

__all__ = [
    "MemoryOrganization",
    "PAPER_ORGS",
    "paper_org",
    "BehavioralRAM",
    "BehavioralROM",
    "BehavioralCAM",
    "MemoryFault",
    "CellStuckAt",
    "DataLineStuckAt",
    "MuxLineStuckAt",
    "CouplingFault",
    "MarchElement",
    "MarchTest",
    "MarchViolation",
    "MARCH_C_MINUS",
    "MATS_PLUS",
    "MARCH_X",
    "MARCH_Y",
    "run_march",
]
