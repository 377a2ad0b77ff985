"""The unified design-flow API: ``DesignSpec -> DesignEngine -> DesignReport``.

This package is the canonical front door for the library::

    from repro.design import DesignSpec, DesignEngine

    spec   = DesignSpec(words=2048, bits=16, c=10, pndc=1e-9)
    engine = DesignEngine()
    memory = engine.build(spec)       # figure-3 SelfCheckingMemory
    report = engine.evaluate(spec)    # structured DesignReport
    print(report.render())            # the classic text page
    grid = engine.sweep(
        DesignSpec.grid(PAPER_ORGS, [(2, 1e-9), (10, 1e-9)]), workers=4
    )

Codes, checkers, address mappings and decoder styles plug in by name
through :mod:`repro.design.registry` — no edits to the core scheme.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.design.spec": ("DesignSpec", "CHECKER_STYLES"),
        "repro.design.engine": ("DesignEngine",),
        "repro.design.report": (
            "DesignReport",
            "DecoderCheckReport",
            "AreaReport",
            "SafetyReport",
            "decoder_check_report",
        ),
        "repro.design.registry": (
            "Registry",
            "CODES",
            "CHECKERS",
            "MAPPINGS",
            "DECODERS",
            "checker_for",
            "decoder_for",
            "mapping_for_code",
            "mapping_kind_for",
            "register_mapping_selector",
            "resolve_code",
        ),
    },
)

if TYPE_CHECKING:
    from repro.design.engine import DesignEngine  # noqa: F401
    from repro.design.registry import (  # noqa: F401
        CHECKERS,
        CODES,
        DECODERS,
        MAPPINGS,
        Registry,
        checker_for,
        decoder_for,
        mapping_for_code,
        mapping_kind_for,
        register_mapping_selector,
        resolve_code,
    )
    from repro.design.report import (  # noqa: F401
        AreaReport,
        DecoderCheckReport,
        DesignReport,
        SafetyReport,
        decoder_check_report,
    )
    from repro.design.spec import CHECKER_STYLES, DesignSpec  # noqa: F401
