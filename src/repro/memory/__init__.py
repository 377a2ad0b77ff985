"""Behavioural memory models: organisation, RAM, ROM, CAM, fault models."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.memory.organization": (
            "MemoryOrganization",
            "PAPER_ORGS",
            "paper_org",
        ),
        "repro.memory.ram": ("BehavioralRAM",),
        "repro.memory.rom_mem": ("BehavioralROM",),
        "repro.memory.cam": ("BehavioralCAM",),
        "repro.memory.faults": (
            "MemoryFault",
            "CellStuckAt",
            "DataLineStuckAt",
            "MuxLineStuckAt",
            "CouplingFault",
        ),
        "repro.memory.march": (
            "MarchElement",
            "MarchTest",
            "MarchViolation",
            "MARCH_C_MINUS",
            "MATS_PLUS",
            "MARCH_X",
            "MARCH_Y",
            "run_march",
        ),
    },
)

if TYPE_CHECKING:
    from repro.memory.cam import BehavioralCAM  # noqa: F401
    from repro.memory.faults import (  # noqa: F401
        CellStuckAt,
        CouplingFault,
        DataLineStuckAt,
        MemoryFault,
        MuxLineStuckAt,
    )
    from repro.memory.march import (  # noqa: F401
        MARCH_C_MINUS,
        MARCH_X,
        MARCH_Y,
        MATS_PLUS,
        MarchElement,
        MarchTest,
        MarchViolation,
        run_march,
    )
    from repro.memory.organization import (  # noqa: F401
        PAPER_ORGS,
        MemoryOrganization,
        paper_org,
    )
    from repro.memory.ram import BehavioralRAM  # noqa: F401
    from repro.memory.rom_mem import BehavioralROM  # noqa: F401
